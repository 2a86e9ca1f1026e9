"""Hecke polynomial of GU(n-1,1) at an inert prime: construction,
factorization certificate, and Satake-side normalization.

Everything is computed with the prime kept formal (the variable q), so
the identities checked here hold for every prime at once.  The polynomial
is assembled from its product form over the diagonal torus,

    H(t) = prod_{i=1..n} ( t - q^(n-1) * x0^2 * (x1...xn) * x_{n+1-i}/x_i ),

whose middle factor (i = k = (n+1)/2) is t - c with
c = q^(n-1) * x0^2 * x1...xn.  Writing y_i = x_{n+1-i}/x_i, the other
roots come in pairs c*y_i and c/y_i (i = 1..m, m = (n-1)/2), so

    R(t) = H(t) / (t - c) = prod_{i=1..m} ( t^2 - c*(y_i + 1/y_i)*t + c^2 ).

H is expanded from its linear factors pair by pair, so every partial
product is a factor of R.  :func:`certified_factorization` is the one
entry point, behind the acceptance criteria, :func:`hecke_report` and the
CLI: it returns H, R, c and a Weyl flag.  Dividing out t - c exactly is
the factorization certificate.  The Weyl flag is certified on the
factors, with no expanded coefficient checked: the paired roots are the
roots of H, each quadratic is its pair's product of linear factors, and
every Weyl generator fixes c and permutes the quadratics.  The acceptance
criteria and the tests check the expanded coefficients of H and R for
Weyl invariance (:func:`check_weyl_invariance`, over the whole group)
and for Galois-twist invariance (:func:`check_sigma_invariance`).

An independent numeric route evaluates the same object from its matrix
definition: for a diagonal torus point g = (A, x0), form g * (twist of g)
with explicit matrix inverses and the antidiagonal sign matrix, push it
through the similitude-twisted dual representation (A, y) -> y*det(A)*
transpose(A)^(-1), and take an exact characteristic-determinant value.
The matrices come from :mod:`guhecke.rational`: every product from its
sparse :func:`~guhecke.rational.mat_mul`, and every determinant and
inverse from :func:`~guhecke.rational.gauss_jordan`, one exact
elimination over Fraction, three per point.  det(A) and
transpose(A)^(-1) share one, det(M) and transpose(M)^(-1) for the
product M share another, and the characteristic determinant is the
third.  The two routes share nothing but the definition, so agreement
at random rational points cross-checks the expansion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from .guards import _require_odd
from .laurent import LaurentPoly, Monomial, TPoly
from .rational import Matrix, gauss_jordan, mat_mul
from .rootdatum import (Weight, WeylElement, pairing, rho, twist_exps,
                        weyl_act, weyl_generators, weyl_group, weyl_permuter)


def r_weights(n: int) -> list[Weight]:
    """Torus weights of the twisted dual representation: for i = 1..n the
    vector with 1 in slot 0 and in every slot j != i.  The i = n weight
    (1; 1,...,1,0) is the dominant one."""
    _require_odd(n)
    out = []
    for i in range(1, n + 1):
        coords = [1] * (n + 1)
        coords[i] = 0
        out.append(tuple(coords))
    return out


def central_monomial(n: int) -> Monomial:
    """x0^2 * x1 * ... * xn, the monomial of the central similitude-square
    function; it is the full twist-norm of x0 and is fixed by every Weyl
    element."""
    return Monomial(0, (2,) + (1,) * n)


def hecke_roots(n: int) -> list[LaurentPoly]:
    """The n linear roots q^(n-1)*x0^2*(x1...xn)*x_{n+1-i}/x_i, i = 1..n."""
    _require_odd(n)
    roots = []
    for i in range(1, n + 1):
        exps = [2] + [1] * n
        exps[n + 1 - i] += 1
        exps[i] -= 1
        roots.append(LaurentPoly.from_term(Monomial(n - 1, tuple(exps))))
    return roots


def hecke_polynomial(n: int) -> TPoly:
    """The expanded Hecke polynomial, monic of degree n in t: the product
    of t - root over :func:`hecke_roots`, taken pair by pair.  Roots i and
    n+1-i multiply to c^2 (c the middle root), so each pair gives the
    three-term t^2 - (c*y_i + c/y_i)*t + c^2, every partial product is a
    factor of R, and the middle factor t - c comes last."""
    roots = hecke_roots(n)
    m = (n - 1) // 2
    poly = TPoly(n, [LaurentPoly.one(n)])
    for i in range(m):
        poly = poly * (TPoly.linear(roots[i]) * TPoly.linear(roots[n - 1 - i]))
    return poly * TPoly.linear(roots[m])


def check_weyl_invariance(p: LaurentPoly, n: int,
                          group: Sequence[WeylElement] | None = None) -> bool:
    """True iff p is fixed by every element of the Weyl group of size
    2^m * m!.  Pass an explicit element list to check a subset (e.g. a
    generating set, which is equivalent by closure).  As w permutes
    monomials bijectively, w fixes p iff each term's image under w has the
    same coefficient in p, so no polynomial is built."""
    if group is None:
        group = weyl_group(n)
    terms = p.terms
    items = list(terms.items())
    get = terms.get
    for w in group:
        if w.n != p.n:
            raise ValueError("size mismatch")
        permute = weyl_permuter(w)
        for (q_exp, exps), coeff in items:
            # A Monomial hashes and compares as its (q_exp, x_exps) tuple.
            if get((q_exp, permute(exps))) != coeff:
                return False
    return True


def check_sigma_invariance(p: LaurentPoly) -> bool:
    """True iff p is fixed by the multiplicative extension of the Galois
    twist (twisted-conjugation invariance at the diagonal level).  The
    twist permutes monomials bijectively, so, as in
    :func:`check_weyl_invariance`, it fixes p iff each term's image has
    the same coefficient in p, and no twisted polynomial is built.  The
    twist runs on the flat exponent rows of
    :meth:`LaurentPoly.exponent_rows`, so no Monomial is built either."""
    rows = p.exponent_rows()
    get = rows.get
    for row, coeff in rows.items():
        if get((row[0], *twist_exps(row[1:]))) != coeff:
            return False
    return True


def satake_alpha(p: LaurentPoly, n: int) -> LaurentPoly:
    """Dilate each monomial nu by q^(-2<rho,nu>).

    Converts twisted-Satake coefficients to the untwisted normalization.
    Since n is odd the exponent 2<rho,nu> is always an even integer, so
    the result stays in the ring.  This is a ring homomorphism.
    """
    _require_odd(n)
    rho_coords = rho(n)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        shift = 2 * pairing(rho_coords, mono.x_exps)
        if shift.denominator != 1:
            raise ValueError(f"non-integral rho-pairing for {mono}")
        new = Monomial(mono.q_exp - int(shift), mono.x_exps)
        out[new] = out.get(new, Fraction(0)) + coeff
    return LaurentPoly(p.n, out)


# ---------------------------------------------------------------------------
# Matrix-side evaluation (exact, over Fraction) for the numeric cross-check.


def _antidiagonal_signs(n: int) -> Matrix:
    """The matrix with (-1)^(i-1) at position (i, n+1-i), 1-indexed."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        m[i - 1][n - i] = Fraction((-1) ** (i - 1))
    return m


def hecke_value_by_determinant(n: int, x0, xs: Sequence, p: int, t) -> Fraction:
    """det(t - p^(n-1) * r(g * twist(g))) for g the diagonal torus point
    (diag(xs), x0), computed purely with matrix operations.  Raises
    ValueError unless g lies on the torus: x0 and every x_i nonzero."""
    _require_odd(n)
    if len(xs) != n:
        raise ValueError(f"need {n} torus coordinates")
    if x0 == 0 or 0 in xs:
        raise ValueError("torus coordinates must be nonzero")
    x0 = Fraction(x0)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, v in enumerate(xs):
        a[i][i] = Fraction(v)
    j_signs = _antidiagonal_signs(n)
    # det(A) = det(transpose(A)), so one elimination gives both.
    det_a, a_t_inv = gauss_jordan(tuple(zip(*a)))
    # twist(A, y) = (J * transpose(A)^(-1) * J, det(A) * y)
    twisted = mat_mul(mat_mul(j_signs, a_t_inv), j_signs)
    prod_mat = mat_mul(a, twisted)
    prod_scalar = x0 * det_a * x0
    # r(M, y) = y * det(M) * transpose(M)^(-1), again from one elimination
    det_m, r_mat = gauss_jordan(tuple(zip(*prod_mat)))
    scale = prod_scalar * det_m
    factor, tv = -Fraction(p) ** (n - 1) * scale, Fraction(t)
    char = [[factor * v if v else v for v in row] for row in r_mat]
    for i in range(n):
        char[i][i] += tv
    return gauss_jordan(char)[0]


# ---------------------------------------------------------------------------
# Report assembly for the CLI.

class PairingCertificateError(ArithmeticError):
    """The root pairs or their quadratic factors fail the certificate of
    :func:`certify_root_pairs`; like a nonzero remainder, this would
    falsify the factorization and must never happen."""


def root_pairs(n: int) -> tuple[LaurentPoly, list[tuple[LaurentPoly, LaurentPoly]]]:
    """(c, [(c*y_i, c/y_i) for i = 1..m]) with c = q^(n-1)*x0^2*x1...xn,
    y_i = x_{n+1-i}/x_i and m = (n-1)/2: the middle root of H and its
    other n - 1 roots, paired i <-> n+1-i."""
    _require_odd(n)
    center = Monomial(n - 1, central_monomial(n).x_exps)
    pairs = []
    for i in range(1, (n - 1) // 2 + 1):
        y = Monomial.var(n, n + 1 - i) * Monomial.var(n, i, -1)
        pairs.append((LaurentPoly.from_term(center * y),
                      LaurentPoly.from_term(center * y.inverse())))
    return LaurentPoly.from_term(center), pairs


def certify_root_pairs(n: int, center: LaurentPoly,
                       pairs: Sequence[tuple[LaurentPoly, LaurentPoly]]
                       ) -> list[TPoly]:
    """The quadratics t^2 - (a + b)*t + c^2, one per pair (a, b), certified:

    (a) c and the flattened pairs are hecke_roots(n) as a multiset, and
    (b) each quadratic equals (t - a)*(t - b), i.e. a*b = c^2.

    Then the product of the quadratics is the product of the linear
    factors t - root over every root but c, in another order, so it is
    the quotient H / (t - c).  Raises PairingCertificateError otherwise.
    """
    flat = [center] + [root for pair in pairs for root in pair]
    if Counter(flat) != Counter(hecke_roots(n)):
        raise PairingCertificateError(
            f"paired roots are not the roots of H for n={n}")
    one, c_sq = LaurentPoly.one(n), center * center
    quadratics = []
    for a, b in pairs:
        quadratic = TPoly(n, [c_sq, -(a + b), one])
        if quadratic != TPoly.linear(a) * TPoly.linear(b):
            raise PairingCertificateError(
                f"(t - {a})*(t - {b}) has constant term other than c^2")
        quadratics.append(quadratic)
    return quadratics


def factors_weyl_invariant(n: int, center: LaurentPoly,
                           quadratics: Sequence[TPoly]) -> bool:
    """True iff every Weyl generator fixes c and permutes the quadratic
    factors (as a multiset).  Then it fixes R, their product, and
    H = R*(t - c), hence every coefficient of both; and a polynomial
    fixed by each generator is fixed by the group.  Each w keeps the
    pairing i <-> n+1-i, so it sends y_i to some y_j^(+-1) and permutes
    the true factors."""
    gens = weyl_generators(n)
    if not check_weyl_invariance(center, n, gens):
        return False
    factors = Counter(quadratics)
    for w in gens:
        moved = Counter(TPoly(n, [weyl_act(w, c) for c in quad.coeffs])
                        for quad in quadratics)
        if moved != factors:
            return False
    return True


def certified_factorization(n: int) -> tuple[TPoly, TPoly, LaurentPoly, bool]:
    """(H, R, c, weyl_invariant): the certified factorization
    H(t) = R(t) * (t - c) with c = q^(n-1)*x0^2*x1...xn.

    H is expanded once and divided by t - c in exact arithmetic; a
    nonzero remainder raises NonZeroRemainderError, which would falsify
    the factorization and must never happen.  The Weyl flag is certified
    on the m quadratic factors of R (:func:`certify_root_pairs`,
    :func:`factors_weyl_invariant`) rather than on the expanded
    coefficients, which acceptance criterion 2 and the tests check with
    :func:`check_weyl_invariance`."""
    hp = hecke_polynomial(n)
    center, pairs = root_pairs(n)
    quotient = hp.divide_exact(TPoly.linear(center))
    quadratics = certify_root_pairs(n, center, pairs)
    return hp, quotient, center, factors_weyl_invariant(n, center, quadratics)


def hecke_report(n: int) -> dict:
    """Summary of the certified factorization: H, R, the linear root, and
    the invariance flag.

    ``"Hp"`` and ``"R"`` are the coefficients themselves, lists of
    :class:`LaurentPoly` by ascending degree in t, not term lists; the
    CLI writes each one as its :meth:`LaurentPoly.json_text`.  The other
    fields are plain JSON values.
    """
    hp, quotient, center, invariant = certified_factorization(n)
    (root_mono, root_coeff), = center.terms.items()
    return {
        "n": n,
        "Hp": list(hp.coeffs),
        "R": list(quotient.coeffs),
        "linear_root": {"coeff": str(root_coeff), "q": root_mono.q_exp,
                        "x": list(root_mono.x_exps)},
        "weyl_invariant": invariant,
    }
