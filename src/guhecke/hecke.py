"""Hecke polynomial of GU(n-1,1) at an inert prime: construction and
factorization certificate.

Everything is computed with the prime kept formal (the variable q), so
the identities checked here hold for every prime at once.  The polynomial
is assembled from its product form over the diagonal torus,

    H(t) = prod_{i=1..n} ( t - q^(n-1) * x0^2 * (x1...xn) * x_{n+1-i}/x_i ),

whose middle factor (i = k = (n+1)/2) is t - c with
c = q^(n-1) * x0^2 * x1...xn.  Writing y_i = x_{n+1-i}/x_i, the other
roots come in pairs c*y_i and c/y_i (i = 1..m, m = (n-1)/2), so

    R(t) = H(t) / (t - c) = prod_{i=1..m} ( t^2 - c*(y_i + 1/y_i)*t + c^2 ).

:func:`hecke_roots` is the one root table: :func:`root_pairs` reads c
and the m pairs off it, and H is expanded from those pairs, so every
partial product is a factor of R and the pairing that builds H is the
one the certificate checks.  :func:`certified_factorization` is the one
entry point, behind the acceptance criteria, :func:`hecke_report` and the
CLI: it returns H, R, c and a Weyl flag.  Dividing out t - c exactly,
one synthetic division (:meth:`~guhecke.laurent.TPoly.divide_exact`), is
the factorization certificate.  One pair certificate,
:func:`certify_root_pairs`, works on the 2m + 1 root monomials with no
quadratic or expanded coefficient built: the paired roots are the roots
of H and each pair multiplies to c^2, or it raises; it returns the Weyl
flag from one generator check on c and the sum of the paired roots.
Acceptance criterion 1 asserts the flag and the Galois-twist invariance
of the expanded coefficients of H and R (:func:`check_sigma_invariance`);
criterion 2 checks them on the generators, which it certifies generate
the group (:func:`check_weyl_invariance`).  A monomial is its exponent
row (q, x0, ..., xn): the roots are built and compared as rows, a
product of monomials is the lane-wise sum of their rows, and every
monomial map acts on rows.  A Weyl element is its permutation tuple
(w(1), ..., w(n)).

An independent numeric route evaluates the same object from its matrix
definition: for a diagonal torus point g = (A, x0), form g * (twist of g)
with the antidiagonal sign matrix, push it through the similitude-twisted
dual representation (A, y) -> y*det(A)*transpose(A)^(-1), and take an
exact characteristic-determinant value.  Every matrix on that route is
monomial, held as one (column, numerator, denominator) per row on
integers.  All but the signed antidiagonal J are diagonal (J * A^-T * J
is) and J is only multiplied, so det(t - B) is the product of t - b_ii.
The two routes share nothing but the definition, so agreement at random
rational points cross-checks the expansion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import add
from typing import Callable, Sequence

from .guards import _require_odd
from .laurent import LaurentPoly, TPoly
from .rootdatum import Perm, Row, row_permuter, twist_row, weyl_generators


def central_monomial(n: int) -> Row:
    """x0^2 * x1 * ... * xn, the monomial of the central similitude-square
    function; it is the full twist-norm of x0 and is fixed by every Weyl
    element."""
    return (0, 2) + (1,) * n


def hecke_roots(n: int) -> list[Row]:
    """The n linear roots q^(n-1)*x0^2*(x1...xn)*x_{n+1-i}/x_i, i = 1..n,
    as rows, from c = q^(n-1) * :func:`central_monomial`, the middle one."""
    _require_odd(n)
    center = (n - 1, *central_monomial(n)[1:])
    roots = []
    for i in range(1, n + 1):
        row = list(center)
        row[n + 2 - i] += 1
        row[i + 1] -= 1
        roots.append(tuple(row))
    return roots


def root_pairs(n: int) -> tuple[Row, list[tuple[Row, Row]]]:
    """(c, [(c*y_i, c/y_i) for i = 1..m]) read off :func:`hecke_roots`,
    with c = q^(n-1)*x0^2*x1...xn, y_i = x_{n+1-i}/x_i and m = (n-1)/2:
    the middle root of H and its other n - 1 roots, paired i <-> n+1-i,
    as rows."""
    roots = hecke_roots(n)
    m = (n - 1) // 2
    return roots[m], [(roots[i], roots[n - 1 - i]) for i in range(m)]


def hecke_polynomial(n: int) -> TPoly:
    """The expanded Hecke polynomial, monic of degree n in t: the product
    of the quadratics (t - a)*(t - b) over :func:`root_pairs`, each the
    three-term t^2 - (c*y_i + c/y_i)*t + c^2, so every partial product is
    a factor of R, and then the middle factor t - c."""
    center, pairs = root_pairs(n)
    poly = TPoly(n, [LaurentPoly.one(n)])
    for a, b in pairs:
        poly = poly * (TPoly.linear(LaurentPoly.from_term(a))
                       * TPoly.linear(LaurentPoly.from_term(b)))
    return poly * TPoly.linear(LaurentPoly.from_term(center))


def _fixed_by(p: LaurentPoly,
              images: Sequence[Callable[[Row], Row]]) -> bool:
    """True iff every monomial map in images fixes p.  A map permutes
    monomials bijectively, so it fixes p iff each term's image has the
    same coefficient in p; the maps run on :meth:`LaurentPoly.exponent_rows`."""
    rows = p.exponent_rows()
    get = rows.get
    items = rows.items()
    return all(get(image(row)) == coeff
               for image in images for row, coeff in items)


def check_weyl_invariance(polys: Sequence[LaurentPoly], n: int,
                          group: Sequence[Perm]) -> bool:
    """True iff every polynomial in polys is fixed by every element of
    group, term by term.  Pass :func:`~guhecke.rootdatum.weyl_generators`
    for the whole Weyl group: a polynomial fixed by each generator is
    fixed by the group they generate, and acceptance criterion 2
    certifies that they generate all of it.  Each element's row map is
    built once and serves every polynomial.  ValueError("size mismatch")
    if a polynomial's n or an element's size is not n."""
    if any(p.n != n for p in polys) or any(len(w) != n for w in group):
        raise ValueError("size mismatch")
    images = [row_permuter(w) for w in group]
    return all(_fixed_by(p, images) for p in polys)


def check_sigma_invariance(p: LaurentPoly) -> bool:
    """True iff p is fixed by the multiplicative extension of the Galois
    twist (twisted-conjugation invariance at the diagonal level)."""
    return _fixed_by(p, (twist_row,))


# ---------------------------------------------------------------------------
# Matrix-side evaluation (exact, on monomial matrices) for the numeric
# cross-check.  A monomial matrix is a list of (column, num, den), one per
# row: the row's one nonzero entry num/den.


def _mono_mul(a: list, b: list) -> list:
    """a @ b: row i is b's row at a's column i, the two entries multiplied."""
    out = []
    for col, num, den in a:
        c, u, v = b[col]
        out.append((c, num * u, den * v))
    return out


def _mono_inv_t(a: list) -> list:
    """transpose(a)^(-1): each entry num/den becomes den/num in place."""
    return [(c, v, u) for c, u, v in a]


def _char_det(a: list, t_num: int, t_den: int) -> tuple[int, int]:
    """det(t - a) as (num, den) for t = t_num/t_den, for a diagonal a:
    the product of t - a_ii.  At t = 0 this is det(-a), which is -det(a)
    when a has odd size.  ValueError if a is not diagonal."""
    num, den = 1, 1
    for i, (col, u, v) in enumerate(a):
        if col != i:
            raise ValueError(f"row {i} is off the diagonal")
        num *= t_num * v - u * t_den
        den *= t_den * v
    return num, den


def hecke_value_by_determinant(n: int, x0, xs: Sequence, p: int, t) -> Fraction:
    """det(t - p^(n-1) * r(g * twist(g))) for g the diagonal torus point
    (diag(xs), x0), computed purely with matrix operations.  Raises
    ValueError unless g lies on the torus: x0 and every x_i nonzero."""
    _require_odd(n)
    if len(xs) != n:
        raise ValueError(f"need {n} torus coordinates")
    if x0 == 0 or 0 in xs:
        raise ValueError("torus coordinates must be nonzero")
    x0, t, q = Fraction(x0), Fraction(t), Fraction(p) ** (n - 1)
    a = [(i, v.numerator, v.denominator)
         for i, v in enumerate(map(Fraction, xs))]
    # the signed antidiagonal: (-1)^(i-1) at (i, n+1-i), 1-indexed
    j_signs = [(n - 1 - i, (-1) ** i, 1) for i in range(n)]
    # twist(A, y) = (J * transpose(A)^(-1) * J, det(A) * y)
    twisted = _mono_mul(_mono_mul(j_signs, _mono_inv_t(a)), j_signs)
    prod_mat = _mono_mul(a, twisted)
    # B = p^(n-1) * r(M, y) with y = x0 * det(A) * x0 and
    # r(M, y) = y * det(M) * transpose(M)^(-1).  n is odd, so
    # det(A) * det(M) = det(-A) * det(-M), the two values at t = 0.
    (a_num, a_den), (m_num, m_den) = (_char_det(a, 0, 1),
                                      _char_det(prod_mat, 0, 1))
    num = q.numerator * x0.numerator ** 2 * a_num * m_num
    den = q.denominator * x0.denominator ** 2 * a_den * m_den
    b = [(c, num * u, den * v) for c, u, v in _mono_inv_t(prod_mat)]
    return Fraction(*_char_det(b, t.numerator, t.denominator))


# ---------------------------------------------------------------------------
# Report assembly for the CLI.

class PairingCertificateError(ArithmeticError):
    """The root pairs fail the certificate of :func:`certify_root_pairs`;
    like a nonzero remainder, this would falsify the factorization and
    must never happen."""


def certify_root_pairs(n: int, center: Row,
                       pairs: Sequence[tuple[Row, Row]]) -> bool:
    """Certify that the pairs (a, b) factor R = H / (t - c) as the
    quadratics t^2 - (a + b)*t + c^2, and return whether the Weyl group
    fixes H and R:

    (a) c and the flattened pairs are hecke_roots(n) as a multiset, and
    (b) a*b = c^2 for each pair, a lane-wise sum of rows, so its
        quadratic is (t - a)*(t - b).

    Then the product of the quadratics is the product of the linear
    factors t - root over every root but c, in another order, so it is
    the quotient H / (t - c).  Raises PairingCertificateError otherwise.

    The flag is one :func:`check_weyl_invariance` call on c and the sum
    of the paired roots.  A generator w is a monomial map, so if it fixes
    c it commutes with a -> c^2/a; if it also fixes the sum, it permutes
    the paired roots as a multiset, so by (b) it maps each pair
    {a, c^2/a} to a pair.  Then it permutes the quadratics, so it fixes
    R, their product, and H = R*(t - c), hence every coefficient of both;
    and a polynomial fixed by each generator is fixed by the group.
    """
    flat = [center] + [root for pair in pairs for root in pair]
    if Counter(flat) != Counter(hecke_roots(n)):
        raise PairingCertificateError(
            f"paired roots are not the roots of H for n={n}")
    c_sq = tuple(map(add, center, center))
    for a, b in pairs:
        if tuple(map(add, a, b)) != c_sq:
            raise PairingCertificateError(
                f"(t - {LaurentPoly.from_term(a)})*(t - "
                f"{LaurentPoly.from_term(b)}) has constant term other than c^2")
    roots = LaurentPoly(n, Counter(flat[1:]))
    return check_weyl_invariance([LaurentPoly.from_term(center), roots], n,
                                 weyl_generators(n))


def certified_factorization(n: int) -> tuple[TPoly, TPoly, LaurentPoly, bool]:
    """(H, R, c, weyl_invariant): the certified factorization
    H(t) = R(t) * (t - c) with c = q^(n-1)*x0^2*x1...xn.

    H is expanded once and divided by t - c in exact arithmetic; a
    nonzero remainder raises NonZeroRemainderError, which would falsify
    the factorization and must never happen.  The Weyl flag is certified
    on the root pairs that give the m quadratic factors of R
    (:func:`certify_root_pairs`) rather than on the expanded
    coefficients, which acceptance criterion 2 and the tests check with
    :func:`check_weyl_invariance`."""
    hp = hecke_polynomial(n)
    center, pairs = root_pairs(n)
    root = LaurentPoly.from_term(center)
    quotient = hp.divide_exact(root)
    return hp, quotient, root, certify_root_pairs(n, center, pairs)


def hecke_report(n: int) -> dict:
    """Summary of the certified factorization: H, R, the linear root, and
    the invariance flag.

    ``"Hp"`` and ``"R"`` are the coefficients themselves, lists of
    :class:`LaurentPoly` by ascending degree in t, not term lists; the
    CLI writes each one as its :meth:`LaurentPoly.json_text`, all of
    them through one cache of lane-pair texts.  The other fields are
    plain JSON values.
    """
    hp, quotient, center, invariant = certified_factorization(n)
    ((q_exp, *x_exps), coeff), = center.exponent_rows().items()
    return {
        "n": n,
        "Hp": list(hp.coeffs),
        "R": list(quotient.coeffs),
        "linear_root": {"coeff": str(coeff), "q": q_exp, "x": x_exps},
        "weyl_invariant": invariant,
    }
