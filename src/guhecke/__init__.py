"""Exact computation of the Hecke polynomial of GU(n-1,1) at an inert
prime, its certified factorization, and the classification and slope
theory of the associated unitary Dieudonne modules and spaces of
signature (n-1,1)."""

from .dieudonne import (ClassificationError, DieudonneModuleZ, DieudonneSpace,
                        IsocrystalShape, NoMatchError, NotBT1Error,
                        SlopeMultiset, StratumRow, basechange, check_bt1,
                        classify_type, fingerprint, integral_model,
                        isocrystal_shape, model_space, newton_slopes,
                        random_basechange, signature, strata_dims)
from .finitefield import GFp2, gfp2
from .hecke import (central_monomial, certified_factorization,
                    check_sigma_invariance, check_weyl_invariance,
                    hecke_polynomial, hecke_report, hecke_roots,
                    hecke_value_by_determinant, satake_alpha)
from .laurent import LaurentPoly, NonZeroRemainderError, TPoly
from .rootdatum import (norm_monomial, pairing, rho, twist_row,
                        weyl_generators, weyl_group)

__version__ = "0.1.0"
