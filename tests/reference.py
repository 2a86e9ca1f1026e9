"""Test-only references.

Plain term-by-term arithmetic on maps from exponent row (q, x0, ..., xn)
to coefficient, the product of two monomials being the lane-wise sum of
their rows (:func:`row_mul`).  The library's LaurentPoly has no ring
operators, so tests build their polynomials from these maps (and from
:func:`x_row`, :func:`var` and :func:`const`) with
``LaurentPoly(n, terms)``.  Then the substitution engine the library no
longer carries, on images with coefficient +-1, the Galois images it used, the per-term dict builder
of the JSON term format, and the term-by-term text of a polynomial.
Tests check the packed kernel, the monomial maps, the JSON text and the
pretty text against these.  Then the twist and the Weyl
action on whole polynomials, built term by term, the earlier enumeration
of the Weyl group by signs and permutations, which the closure of the
generators is checked against, and the earlier factor
certificate on quadratic t-polynomials, which the root-pair certificate
is checked against.  Below them are the dense matrix product by its
definition, one Gauss-Jordan elimination over Fraction, and on them the
earlier dense route of the Hecke value by determinant, which the
monomial-matrix route is checked against; then the earlier negation
and inversion tables of F_{p^2}, by their formulas, which the tables
read off the multiplication table are checked against, the F_{p^2}
vector operations, the vector-level operators and identity test that
only the tests use, the earlier two-elimination sampler of base
changes, the earlier base change that validated its result as a new
space, and the earlier classification,
which ranked the blocks before its closure eliminated them again, with
the earlier signature off V's kernels and a worklist of its own, and a
sampler of BT1 spaces of signature (n - 1, 1) that no model built, which
it is checked on.  Then the dense integer view of
an integral model's arrows, on which the tests keep the matrix identities
(F V = V F = p, the pairing law), and the block sum of Dieudonne spaces
that once assembled the type-r model.  Last, the p-adic lower Newton
polygon of a polynomial: on ``dieudonne.char_poly`` of the dense F it is
the slope reference that ``newton_slopes``, which reads the cycles of F,
is checked against.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Sequence

from guhecke.dieudonne import (DieudonneSpace, NoMatchError, NotBT1Error,
                               _model_fingerprints, basechange)
from guhecke.finitefield import (annihilator_rows, identity_mat, kernel_basis,
                                 mat_frob, mat_inv, mat_mul, mat_neg,
                                 mat_transpose, rank, rref)
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
    ``{"coeff": "-3", "q": 2, "x": [...]}``."""
    return [{"coeff": str(coeff), "q": row[0], "x": list(row[1:])}
            for row, coeff in sorted(poly.exponent_rows().items())]


def ref_sorted_terms(poly):
    """The (row, coefficient) terms of poly in row order."""
    return sorted(poly.exponent_rows().items())


def ref_term_str(row, coeff):
    """One term's text: its factors joined by ``*``, a coefficient of 1
    or -1 written only as its sign unless the row is constant."""
    factors = []
    for lane, e in enumerate(row):
        if e:
            name = f"x{lane - 1}" if lane else "q"
            factors.append(name if e == 1 else f"{name}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def ref_str(poly):
    """The text of poly, built term by term: what ``str`` gives."""
    parts = []
    for row, coeff in ref_sorted_terms(poly):
        if not parts:
            parts.append(ref_term_str(row, coeff))
        elif coeff < 0:
            parts.append(" - " + ref_term_str(row, -coeff))
        else:
            parts.append(" + " + ref_term_str(row, coeff))
    return "".join(parts) or "0"


def substitute(poly, x_images, q_image=None):
    """Replace each x_i by x_images[i] (and q by q_image), exactly.

    Every image must be a single term with coefficient +-1, a unit of
    the integer ring, so that negative exponents stay meaningful and the
    coefficients stay ints (an int to a negative power is a float).
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
        if coeff not in (1, -1):
            raise ValueError("substitution images must have coefficient +-1")
        pairs.append((row, coeff))
    out = {}
    for row, coeff in poly.exponent_rows().items():
        acc_mono = (0,) * (n + 2)
        acc_coeff = coeff
        for exp, (im, ic) in zip(row, pairs):
            if exp:
                acc_mono = row_mul(acc_mono, tuple(exp * e for e in im))
                acc_coeff *= ic ** abs(exp)
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
    """Permute x1..xn by the permutation tuple w (x_i -> x_{w(i)}); x0
    and q are fixed.  The
    action is a bijection on monomials, so coefficients move unchanged."""
    if len(w) != p.n:
        raise ValueError("size mismatch")
    out = {}
    for row, coeff in p.exponent_rows().items():
        moved = list(row)
        for i in range(1, p.n + 1):
            moved[w[i - 1] + 1] = row[i + 1]
        out[tuple(moved)] = coeff
    return LaurentPoly(p.n, out)


def ref_weyl_group(n):
    """All 2^m * m! Weyl elements (m = (n-1)/2), enumerated directly.

    An element is determined by where it sends 1..m and whether each image
    is reflected across the middle; the bottom half and the fixed middle
    index follow from the pairing condition.
    """
    m = (n - 1) // 2
    k = (n + 1) // 2
    out = []
    for base in itertools.permutations(range(1, m + 1)):
        for signs in itertools.product((0, 1), repeat=m):
            perm = [0] * n
            perm[k - 1] = k
            for i in range(1, m + 1):
                image = base[i - 1] if signs[i - 1] == 0 else n + 1 - base[i - 1]
                perm[i - 1] = image
                perm[n - i] = n + 1 - image
            out.append(tuple(perm))
    return tuple(out)


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


def gauss_jordan(a):
    """(det(a), a^-1) for a square matrix of ints or Fractions, from one
    Gauss-Jordan elimination of [a | I] over Fraction; the inverse is None
    when det(a) = 0."""
    size = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                       for j in range(size)]
         for i, row in enumerate(a)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pivot_value = m[col][col]
        det *= pivot_value
        m[col] = [v / pivot_value for v in m[col]]
        for r in range(size):
            if r != col:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return det, [row[size:] for row in m]


def antidiagonal_signs(n):
    """The matrix with (-1)^(i-1) at position (i, n+1-i), 1-indexed."""
    return [[Fraction((-1) ** i) if i + j == n - 1 else Fraction(0)
             for j in range(n)] for i in range(n)]


def ref_hecke_value_by_determinant(n, x0, xs, p, t):
    """det(t - p^(n-1) * r(g * twist(g))) for the torus point
    g = (diag(xs), x0) on dense Fraction matrices: the earlier route of
    hecke_value_by_determinant, three eliminations per point."""
    x0 = Fraction(x0)
    a = [[Fraction(xs[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    j_signs = antidiagonal_signs(n)
    det_a, a_t_inv = gauss_jordan(list(zip(*a)))
    twisted = dense_mat_mul(dense_mat_mul(j_signs, a_t_inv), j_signs)
    prod_mat = dense_mat_mul(a, twisted)
    det_m, r_mat = gauss_jordan(list(zip(*prod_mat)))
    factor = -Fraction(p) ** (n - 1) * x0 * det_a * x0 * det_m
    char = [[factor * v + (Fraction(t) if i == j else 0)
             for j, v in enumerate(row)] for i, row in enumerate(r_mat)]
    return gauss_jordan(char)[0]


def ref_neg_table(fld):
    """The earlier negation table, by its formula: -(a + b u) = -a - b u."""
    p = fld.p
    return tuple((-x % p) % p + p * ((-(x // p)) % p) for x in range(fld.size))


def ref_inv_table(fld):
    """The earlier inversion table, by the norm formula: 1/(a + b u) =
    (a - b u) / (a^2 - c b^2), c the non-residue; 0 maps to 0."""
    p, c = fld.p, fld.nonresidue
    inv = [0] * fld.size
    for x in range(1, fld.size):
        a1, b1 = x % p, x // p
        ninv = pow((a1 * a1 - c * b1 * b1) % p, p - 2, p)
        inv[x] = (a1 * ninv) % p + p * ((-b1 * ninv) % p)
    return tuple(inv)


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
    """True iff the Weyl element w, a permutation tuple, fixes every
    index."""
    return w == tuple(range(1, len(w) + 1))


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
    q_mat = ref_random_invertible(fld, space.ne, rng)
    return basechange([space], (p_mat, mat_inv(fld, p_mat)),
                      (q_mat, mat_inv(fld, q_mat)))[0]


def ref_basechange(space, p_mat, q_mat, p_inv, q_inv):
    """The earlier ``basechange``: four products of the form
    inv(T_h) @ (M @ frob(T_g)), one per block, and the gram's two, the
    result validated as a new space; the inverses are taken as given."""
    fld = space.field
    p_tw, q_tw = mat_frob(fld, p_mat), mat_frob(fld, q_mat)
    return DieudonneSpace(
        p=space.p, ne=space.ne,
        f_e2ebar=mat_mul(fld, q_inv, mat_mul(fld, space.f_e2ebar, p_tw)),
        f_ebar2e=mat_mul(fld, p_inv, mat_mul(fld, space.f_ebar2e, q_tw)),
        v_e2ebar=mat_mul(fld, q_inv, mat_mul(fld, space.v_e2ebar, p_tw)),
        v_ebar2e=mat_mul(fld, p_inv, mat_mul(fld, space.v_ebar2e, q_tw)),
        gram=mat_mul(fld, mat_transpose(p_mat), mat_mul(fld, space.gram, q_mat)))


def ref_pairing_law(space):
    """The earlier pairing law: -(G F)^T = frob(G V) for each gram block,
    one product per side."""
    fld = space.field
    for g, f, v in ((space.gram, space.f_e2ebar, space.v_e2ebar),
                    (mat_transpose(space.gram), space.f_ebar2e,
                     space.v_ebar2e)):
        lhs = tuple(tuple(fld.neg(x) for x in col)
                    for col in zip(*mat_mul(fld, g, f)))
        if lhs != mat_frob(fld, mat_mul(fld, g, v)):
            return False
    return True


def ref_v_kernels(space):
    """(Ker V_e, Ker V_ebar) on every space, each by the elimination of
    its block: the deleted route, before Ker V was read off Im F."""
    fld, n = space.field, space.ne
    return tuple(mat_frob(fld, kernel_basis(fld, space.v_matrix(g), n))
                 for g in (0, 1))


def ref_signature(space):
    """The earlier signature, on every space: (dim Ker V_ebar, dim Ker V_e),
    n minus the rank of each V block, off :func:`ref_v_kernels`."""
    kernels = ref_v_kernels(space)
    return len(kernels[1]), len(kernels[0])


def ref_closure(start, successors):
    """A worklist of its own: the smallest set holding ``start`` and closed
    under ``successors``, each node expanded once."""
    seen, work = set(start), list(start)
    while work:
        for nxt in successors(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def ref_fingerprint(space):
    """The earlier fingerprint closure, on every space: every node, 0 and
    full included, expanded by its own eliminations, except F(0) = 0 and
    V^-1(full) = full, on :func:`ref_closure`."""
    fld, n = space.field, space.ne

    def successors(node):
        grade, basis = node
        src = 1 - grade
        if not basis:
            img = ()
        else:
            img = rref(fld, mat_mul(fld, mat_frob(fld, basis),
                                    mat_transpose(space.f_matrix(grade))))
        if len(basis) == n:
            pre = identity_mat(n)
        else:
            ann = annihilator_rows(fld, basis, n)
            pre = mat_frob(fld, kernel_basis(
                fld, mat_mul(fld, ann, space.v_matrix(src)), n))
        image_dim[node] = len(img)
        return (src, img), (src, pre)

    image_dim = {}
    seen = ref_closure([(0, ()), (1, ()), (0, identity_mat(n)),
                        (1, identity_mat(n))], successors)
    return tuple(sorted((len(x), image_dim[g, x], len(x) - image_dim[g, x])
                        for g, x in seen))


def ref_classify_type(space, n):
    """The earlier ``classify_type``, in its stage order: dimensions, the
    ranks of the V blocks, then of the F blocks in the rank identities
    (grade 0 first), the pairing law, the signature, and the closure,
    each stage with its own eliminations."""
    if space.ne != n:
        dims = (space.ne, space.ne)
        raise NotBT1Error(f"graded dimensions {dims} != ({n}, {n})")
    fld = space.field
    rank_v = (rank(fld, space.v_e2ebar), rank(fld, space.v_ebar2e))
    if not (all(rank(fld, space.f_matrix(g)) + rank_v[1 - g] == n
                for g in (0, 1)) and ref_pairing_law(space)):
        raise NotBT1Error("Im F = Ker V / Im V = Ker F or the pairing law fails")
    sig = ref_signature(space)
    if sig != (n - 1, 1):
        raise NotBT1Error(f"signature {sig} != ({n - 1}, 1)")
    fp = ref_fingerprint(space)
    for r, model_fp in _model_fingerprints(n):
        if fp == model_fp:
            return r
    raise NoMatchError(f"fingerprint matches no model for n={n}, p={space.p}")


def ref_bt1_space(fld, n, rng):
    """A BT1 space of signature (n - 1, 1) with gram I, uniform among them,
    drawn from rng: F_e = A D B with A, B uniform invertible and D =
    diag(1, ..., 1, 0), F_ebar = lam u w^T with lam != 0 uniform, w = B^-1
    e_n and u^T = e_n^T A^-1, and V_g = frob(-F_g^T).

    Every BT1 space with gram I and signature (n - 1, 1) has this form.
    With G = I the pairing law reads -F_g^T = frob(V_g), which gives V_g.
    The signature is (rank F_e, rank F_ebar), so rank F_e = n - 1, and
    F_ebar = a b^T with a, b nonzero.  With V so, F V = V F = 0 says
    F_ebar F_e^T = 0 and F_ebar^T F_e = 0, up to sign, frob and
    transposes: a (F_e b)^T = 0 and b (a^T F_e) = 0.  So b spans Ker F_e
    and a its left kernel, both lines, and F_ebar = lam u w^T, as w spans
    Ker D B = Ker F_e and u^T A D = 0.  Conversely a draw has those products
    0 (the constructor checks them again), the law by construction and
    rank F_e + rank F_ebar = n, so it is BT1 of that signature.  The draw
    is uniform: GL_n x GL_n acts transitively on the matrices of rank
    n - 1, so A D B is uniform among them, and given F_e every lam u w^T
    is one of the p^2 - 1 nonzero multiples of one matrix."""
    a, b = (ref_random_invertible(fld, n, rng) for _ in range(2))
    f_e = mat_mul(fld, tuple(row[:-1] + (0,) for row in a), b)
    u, w = mat_inv(fld, a)[-1], [row[-1] for row in mat_inv(fld, b)]
    lam = rng.randrange(1, fld.size)
    f_ebar = tuple(tuple(fld.mul(lam, fld.mul(x, y)) for y in w) for x in u)

    def adjoint(m):  # V_g by the pairing law with G = I
        return mat_frob(fld, mat_neg(fld, mat_transpose(m)))

    return DieudonneSpace(p=fld.p, ne=n, f_e2ebar=f_e, f_ebar2e=f_ebar,
                          v_e2ebar=adjoint(f_e), v_ebar2e=adjoint(f_ebar),
                          gram=identity_mat(n))


def dense_view(module):
    """(F, V, gram) of an integral model as dense integer matrices acting
    on coordinate columns: column j of F is the image of b_j, and
    gram[j][k] = <b_j, b_k>."""
    dim = len(module.f_map)

    def columns(arrows):
        m = [[0] * dim for _ in range(dim)]
        for j, (i, w) in enumerate(arrows):
            m[i][j] = w
        return tuple(map(tuple, m))

    return (columns(module.f_map), columns(module.v_map),
            tuple(zip(*columns(module.pair))))


def ref_direct_sum(first, *rest):
    """Block sum of the structure matrices of Dieudonne spaces over one
    prime, in order, gram block-diagonal, validated as a new space."""
    spaces = (first, *rest)

    widths = [s.ne for s in spaces]

    def block(name):
        rows, offset = [], 0
        for s, width in zip(spaces, widths):
            left, right = (0,) * offset, (0,) * (sum(widths) - offset - width)
            rows.extend(left + row + right for row in getattr(s, name))
            offset += width
        return tuple(rows)

    return DieudonneSpace(
        p=first.p, ne=sum(widths),
        f_e2ebar=block("f_e2ebar"), f_ebar2e=block("f_ebar2e"),
        v_e2ebar=block("v_e2ebar"), v_ebar2e=block("v_ebar2e"),
        gram=block("gram"))


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
