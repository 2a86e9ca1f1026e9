"""Test-only references.

Plain term-by-term arithmetic on maps from exponent row (q, x0, ..., xn)
to coefficient, the product of two monomials being the lane-wise sum of
their rows (:func:`row_mul`).  The library's LaurentPoly has no ring
operators, so tests build their polynomials from these maps (and from
:func:`x_row`, :func:`var` and :func:`const`) with
``LaurentPoly(n, terms)``.  Then the substitution engine the library no
longer carries, the Galois images it used, and the per-term dict builder
of the JSON term format.  Tests check the packed kernel, the monomial
maps and the JSON text against these.  Then the twist and the Weyl
action on whole polynomials, built term by term, and the earlier factor
certificate on quadratic t-polynomials, which the root-pair certificate
is checked against.  Below them are the dense matrix product by its
definition, the F_{p^2} vector operations, the vector-level operators
and identity test that only the tests use, and the earlier
two-elimination sampler of base changes.  Last, the p-adic lower Newton
polygon of a polynomial: on ``dieudonne.char_poly(F)`` it is the slope
reference that ``newton_slopes``, which reads the cycles of F, is
checked against.
"""

import random
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Sequence

from guhecke.dieudonne import basechange
from guhecke.finitefield import mat_inv, rank
from guhecke.laurent import LaurentPoly, TPoly
from guhecke.rootdatum import twist_row, weyl_generators


def x_row(n, i, exp=1):
    """The exponent row of x_i^exp, 0 <= i <= n."""
    row = [0] * (n + 2)
    row[i + 1] = exp
    return tuple(row)


def row_mul(a, b):
    """The product of two monomials: the lane-wise sum of their rows."""
    if len(a) != len(b):
        raise ValueError("monomial dimension mismatch")
    return tuple(map(add, a, b))


def var(n, i, exp=1):
    """The polynomial x_i^exp, 0 <= i <= n."""
    return LaurentPoly(n, {x_row(n, i, exp): 1})


def const(n, c):
    """The constant polynomial c."""
    return LaurentPoly(n, {(0,) * (n + 2): c})


def ref_add(a, b):
    """a + b on row -> coefficient maps, zeros dropped."""
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + coeff
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    """a * b, one row product per pair of terms, zeros dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = row_mul(m1, m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_tmul(a, b):
    """Product of t-polynomials given as lists of term maps."""
    out = [{} for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = ref_add(out[i + j], ref_mul(ai, bj))
    return out


def ref_divmod(num, den):
    """Long division of t-polynomials given as lists of term maps (by
    ascending degree) by a monic divisor."""
    dd = len(den) - 1
    (lead, coeff), = den[-1].items()
    assert coeff == 1 and not any(lead), "the divisor must be monic"
    rem = [dict(c) for c in num]
    quo = [{} for _ in range(max(len(num) - dd, 0))]
    for j in range(len(rem) - 1, dd - 1, -1):
        f = rem[j]
        quo[j - dd] = f
        neg_f = {m: -c for m, c in f.items()}
        for i, d in enumerate(den):
            rem[j - dd + i] = ref_add(rem[j - dd + i], ref_mul(neg_f, d))
    while quo and not quo[-1]:
        quo.pop()
    rem = rem[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def ref_to_json(poly):
    """The term list of poly, one dict per term in row order, each
    ``{"coeff": "3/2", "q": 2, "x": [...]}``."""
    return [{"coeff": str(coeff), "q": row[0], "x": list(row[1:])}
            for row, coeff in sorted(poly.exponent_rows().items())]


def substitute(poly, x_images, q_image=None):
    """Replace each x_i by x_images[i] (and q by q_image), exactly.

    Every image must be a single invertible term, so that negative
    exponents stay meaningful.
    """
    n = poly.n
    if len(x_images) != n + 1:
        raise ValueError(f"need {n + 1} images, got {len(x_images)}")
    if q_image is None:
        q_image = LaurentPoly.from_term((1,) + (0,) * (n + 1))
    pairs = []
    for img in (q_image, *x_images):
        if img.n != n:
            raise ValueError("image variable-count mismatch")
        if len(img) != 1:
            raise ValueError("substitution images must be invertible single terms")
        (row, coeff), = img.exponent_rows().items()
        pairs.append((row, coeff))
    out = {}
    for row, coeff in poly.exponent_rows().items():
        acc_mono = (0,) * (n + 2)
        acc_coeff = coeff
        for exp, (im, ic) in zip(row, pairs):
            if exp:
                acc_mono = row_mul(acc_mono, tuple(exp * e for e in im))
                acc_coeff *= Fraction(ic) ** exp
        out[acc_mono] = out.get(acc_mono, 0) + acc_coeff
    return LaurentPoly(n, out)


def sigma_images(n):
    """Substitution images [x0 -> x0*x1*...*xn, x_i -> x_{n+1-i}^(-1)]."""
    images = [LaurentPoly.from_term((0,) + (1,) * (n + 1))]
    for i in range(1, n + 1):
        images.append(var(n, n + 1 - i, -1))
    return images


def sigma_twist_poly(p):
    """The Galois twist extended multiplicatively to a whole Laurent
    polynomial: a bijective monomial map, so coefficients move unchanged."""
    return LaurentPoly(p.n, {twist_row(row): coeff
                             for row, coeff in p.exponent_rows().items()})


def weyl_act(w, p):
    """Permute x1..xn by w (x_i -> x_{w(i)}); x0 and q are fixed.  The
    action is a bijection on monomials, so coefficients move unchanged."""
    if w.n != p.n:
        raise ValueError("size mismatch")
    out = {}
    for row, coeff in p.exponent_rows().items():
        moved = list(row)
        for i in range(1, p.n + 1):
            moved[w.perm[i - 1] + 1] = row[i + 1]
        out[tuple(moved)] = coeff
    return LaurentPoly(p.n, out)


def quadratic_factors_weyl_invariant(n, center, pairs):
    """The earlier factor certificate on quadratics: True iff every Weyl
    generator fixes c and permutes the quadratics (t - a)*(t - b), one
    per pair (a, b) of rows, as a multiset of t-polynomials."""
    center = LaurentPoly.from_term(center)
    gens = weyl_generators(n)
    if any(weyl_act(w, center) != center for w in gens):
        return False
    quadratics = [TPoly.linear(LaurentPoly.from_term(a))
                  * TPoly.linear(LaurentPoly.from_term(b)) for a, b in pairs]
    factors = Counter(quadratics)
    for w in gens:
        moved = Counter(TPoly(n, [weyl_act(w, c) for c in quad.coeffs])
                        for quad in quadratics)
        if moved != factors:
            return False
    return True


def dense_mat_mul(a, b):
    """a @ b by the definition: every row of a against every column of b."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def mat_vec(fld, m, v):
    """m @ v over F_{p^2}, one table lookup per nonzero product."""
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = fld.add(acc, fld.mul(a, b))
        out.append(acc)
    return tuple(out)


def vec_frob(fld, v):
    """Frobenius on every coordinate of v."""
    return tuple(fld.frob(x) for x in v)


def apply_f(space, grade, v):
    """F on a vector of the given grade of a Dieudonne space: Frobenius
    on the coordinates, then the matrix."""
    fld = space.field
    return mat_vec(fld, space.f_matrix(grade), vec_frob(fld, v))


def apply_v(space, grade, v):
    """V on a vector of the given grade, as :func:`apply_f` does F."""
    fld = space.field
    return mat_vec(fld, space.v_matrix(grade), vec_frob(fld, v))


def is_identity(w):
    """True iff the Weyl element w fixes every index."""
    return w.perm == tuple(range(1, w.n + 1))


def ref_random_invertible(fld, size, rng):
    """The earlier sampler: draw until ``rank`` says the matrix is
    invertible, and return the matrix only."""
    while True:
        m = tuple(tuple(rng.randrange(fld.size) for _ in range(size))
                  for _ in range(size))
        if rank(fld, m) == size:
            return m


def ref_random_basechange(space, seed):
    """The earlier ``random_basechange``: the two frames drawn by
    :func:`ref_random_invertible`, each inverted by its own elimination."""
    rng = random.Random(seed)
    fld = space.field
    p_mat = ref_random_invertible(fld, space.ne, rng)
    q_mat = ref_random_invertible(fld, space.nebar, rng)
    return basechange(space, p_mat, q_mat, mat_inv(fld, p_mat),
                      mat_inv(fld, q_mat))


def _valuation(value: Fraction, p: int) -> int:
    if value == 0:
        raise ValueError("valuation of zero")
    v = 0
    num = value.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = value.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_newton_slopes(coeffs: Sequence, p: int) -> list[tuple[Fraction, int]]:
    """Root valuations with multiplicities from the lower Newton polygon of
    a polynomial with nonzero constant term (coeffs by ascending power)."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or coeffs[0] == 0 or coeffs[-1] == 0:
        raise ValueError("constant and leading coefficients must be nonzero")
    points = [(j, _valuation(c, p)) for j, c in enumerate(coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    return sorted(out)
