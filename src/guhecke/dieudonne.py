"""Semilinear algebra of unitary Dieudonne modules and spaces.

Two levels of structure are modelled:

* :class:`DieudonneModuleZ` -- an integral model: a free module of rank 2d
  with integer matrices for the Frobenius-semilinear operator F and the
  inverse-Frobenius-semilinear operator V satisfying F V = V F = p, a
  perfect alternating integer pairing, and a grading into two pieces of
  which F and V swap.  The two building blocks are the rank-2
  supersingular module and the rank-2d banded module with a single
  F-cycle through the graded basis.  The checks use the exact integer
  product and determinant of :mod:`guhecke.rational`.

* :class:`DieudonneSpace` -- the mod-p reduction: graded pieces over
  F_{p^2} with F V = V F = 0 and a nondegenerate pairing between the
  pieces.  Matrices act on coordinate columns; the semilinear twist is
  applied to coordinates before the matrix (and Frobenius is an
  involution on F_{p^2}, so the inverse twist is the same map).

The classification of spaces with signature (n-1,1) assigns a type
r in {1..n}: the space is isomorphic to the direct sum of the rank-2r
banded block and n-r supersingular planes.  Types are recognized by an
isomorphism-invariant fingerprint: close {0, everything} under taking
F-images and V-preimages of graded subspaces, then record the multiset
of (dim X, dim F(X), dim(X & ker F)) over the closure.  An input's
closure is computed by row reduction over F_{p^2}.  The n candidate
models' fingerprints depend on (n, r) alone and are written down in
closed form, so classification builds no model; the test suite checks
the formula against the models' row-reduced closures and asserts that
the n fingerprints are pairwise distinct, which makes the lookup well
defined.

Both the BT1 test and the fingerprint rest on rank-nullity for a
semilinear map x -> A frob(x): its image is the column span of A and
its kernel has dimension (source dim) - rank A, since frob is a
bijection.  So dim(X & ker F) = dim X - dim F(X), and, as F V = V F = 0
already gives Im F <= Ker V and Im V <= Ker F, the BT1 equalities are
rank identities; no kernel or intersection is formed.

Newton slopes of an integral model are read off the cycles of its F,
which must be monomial, as in every model built here.  They are the
isocrystal's slopes because the F-matrix has integer (Frobenius-fixed)
entries, so inputs are restricted to integral models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .finitefield import (GFp2, Mat, annihilator_rows, gfp2, identity_mat,
                          kernel_basis, mat_frob, mat_inv, mat_mul,
                          mat_transpose, rank, rref)
from .guards import _require_odd
from .rational import gauss_jordan, mat_mul as int_mat_mul

IntMat = tuple[tuple[int, ...], ...]


class ClassificationError(Exception):
    """Base class for classification failures (CLI exit code 3)."""


class NotBT1Error(ClassificationError):
    """Input space fails the truncation axioms or the signature/dimension
    preconditions of the classification."""


class NoMatchError(ClassificationError):
    """The input's fingerprint is none of the n closed-form model
    fingerprints, so the input is isomorphic to no type-r model.  Those
    fingerprints are pairwise distinct (the test suite checks every odd
    n <= 99), so a match, when there is one, is unique."""


class ClosureLimitError(ClassificationError):
    """The fingerprint closure took more than CLOSURE_STEP_LIMIT steps."""


# ---------------------------------------------------------------------------
# Slope multisets


@dataclass(frozen=True)
class SlopeMultiset:
    """Rational slopes in [0,1] with positive multiplicities, ascending."""

    entries: tuple[tuple[Fraction, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "SlopeMultiset":
        merged: dict[Fraction, int] = {}
        for slope, mult in pairs:
            slope = Fraction(slope)
            if not 0 <= slope <= 1:
                raise ValueError(f"slope {slope} outside [0,1]")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            merged[slope] = merged.get(slope, 0) + mult
        return cls(tuple(sorted(merged.items())))

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def is_symmetric(self) -> bool:
        """Fixed by s -> 1 - s as a multiset."""
        table = dict(self.entries)
        return all(table.get(1 - s) == m for s, m in self.entries)

    def to_json(self) -> list[dict]:
        return [{"slope": str(s), "mult": m} for s, m in self.entries]

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s} x{m}" for s, m in self.entries) + "}"


# ---------------------------------------------------------------------------
# Integral models


def _json_ints(what: str, *values) -> tuple[int, ...]:
    """values, if every one is an int (a bool is not), else ValueError."""
    if any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be integers, got {list(values)}")
    return values


def _as_int_mat(rows) -> IntMat:
    return tuple(_json_ints("matrix entries", *row) for row in rows)


@dataclass(frozen=True)
class DieudonneModuleZ:
    """Integral model: rank-2d module with integer F, V, pairing matrices.

    The first ``ne`` basis vectors span the e-graded piece, the rest the
    conjugate piece.  Validated at construction: p, ne and every matrix
    entry are ints (a bool is not), F and V swap the grading,
    F V = V F = p, and the alternating pairing is unimodular with
    isotropic graded pieces.
    """

    p: int
    ne: int
    f_mat: IntMat
    v_mat: IntMat
    gram: IntMat

    def __post_init__(self):
        object.__setattr__(self, "f_mat", _as_int_mat(self.f_mat))
        object.__setattr__(self, "v_mat", _as_int_mat(self.v_mat))
        object.__setattr__(self, "gram", _as_int_mat(self.gram))
        _json_ints("p and ne", self.p, self.ne)
        gfp2(self.p)  # validates that p is an odd prime
        dim = len(self.f_mat)
        if not 0 < self.ne < dim:
            raise ValueError("grading split out of range")
        for name, m in (("F", self.f_mat), ("V", self.v_mat), ("gram", self.gram)):
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ValueError(f"{name} must be {dim}x{dim}")
        ne = self.ne
        for m in (self.f_mat, self.v_mat):
            for i in range(dim):
                for j in range(dim):
                    if (i < ne) == (j < ne) and m[i][j]:
                        raise ValueError("F and V must swap the graded pieces")
        p_id = tuple(tuple(self.p * int(i == j) for j in range(dim))
                     for i in range(dim))
        if int_mat_mul(self.f_mat, self.v_mat) != p_id \
                or int_mat_mul(self.v_mat, self.f_mat) != p_id:
            raise ValueError("F V = V F = p fails")
        for i in range(dim):
            for j in range(dim):
                if self.gram[i][j] != -self.gram[j][i]:
                    raise ValueError("pairing must be alternating")
                if (i < ne) == (j < ne) and self.gram[i][j]:
                    raise ValueError("graded pieces must be isotropic")
        if abs(gauss_jordan(self.gram)[0]) != 1:
            raise ValueError("pairing must be unimodular")

    @property
    def dim(self) -> int:
        return len(self.f_mat)

    def reduction(self) -> "DieudonneSpace":
        """The mod-p Dieudonne space, graded pieces split out."""
        ne = self.ne
        dim = self.dim
        fld = gfp2(self.p)
        emb = fld.embed

        def block(m, rows, cols):
            return tuple(tuple(emb(m[i][j]) for j in cols) for i in rows)

        e_idx = range(ne)
        eb_idx = range(ne, dim)
        return DieudonneSpace(
            p=self.p, ne=ne, nebar=dim - ne,
            f_e2ebar=block(self.f_mat, eb_idx, e_idx),
            f_ebar2e=block(self.f_mat, e_idx, eb_idx),
            v_e2ebar=block(self.v_mat, eb_idx, e_idx),
            v_ebar2e=block(self.v_mat, e_idx, eb_idx),
            gram=block(self.gram, e_idx, eb_idx),
        )


def make_SS(p: int) -> DieudonneModuleZ:
    """The rank-2 supersingular model on basis (g, h): F g = h = -V g,
    completed by F h = -p g, V h = p g; pairing <g, h> = 1."""
    return DieudonneModuleZ(
        p=p, ne=1,
        f_mat=((0, -p), (1, 0)),
        v_mat=((0, p), (-1, 0)),
        gram=((0, 1), (-1, 0)),
    )


def make_B(d: int, p: int) -> DieudonneModuleZ:
    """The rank-2d banded model on basis (e_1..e_d, f_1..f_d).

    Generating relations: F f_1 = (-1)^d e_d, F e_i = f_{i-1} (i >= 2),
    V f_d = e_1, V e_i = f_{i+1} (i <= d-1); the remaining values are the
    unique completion with F V = V F = p.  Pairing <e_i, f_j> =
    (-1)^(i-1) delta_{ij}.  Signature of the reduction is (d-1, 1).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    dim = 2 * d
    f = [[0] * dim for _ in range(dim)]
    v = [[0] * dim for _ in range(dim)]
    sign = (-1) ** d

    def e(i):  # 1-indexed e_i
        return i - 1

    def fb(j):  # 1-indexed f_j
        return d + j - 1

    f[fb(d)][e(1)] = p                       # F e_1 = p f_d
    for i in range(2, d + 1):
        f[fb(i - 1)][e(i)] = 1               # F e_i = f_{i-1}
    f[e(d)][fb(1)] = sign                    # F f_1 = (-1)^d e_d
    for j in range(2, d + 1):
        f[e(j - 1)][fb(j)] = p               # F f_j = p e_{j-1}

    for i in range(1, d):
        v[fb(i + 1)][e(i)] = 1               # V e_i = f_{i+1}
    v[fb(1)][e(d)] = sign * p                # V e_d = (-1)^d p f_1
    for j in range(1, d):
        v[e(j + 1)][fb(j)] = p               # V f_j = p e_{j+1}
    v[e(1)][fb(d)] = 1                       # V f_d = e_1

    gram = [[0] * dim for _ in range(dim)]
    for i in range(1, d + 1):
        gram[e(i)][fb(i)] = (-1) ** (i - 1)
        gram[fb(i)][e(i)] = -((-1) ** (i - 1))
    return DieudonneModuleZ(p=p, ne=d, f_mat=f, v_mat=v, gram=gram)


# ---------------------------------------------------------------------------
# Dieudonne spaces over F_{p^2}


@dataclass(frozen=True)
class DieudonneSpace:
    """Graded semilinear F, V data over F_{p^2} with F V = V F = 0 and a
    nondegenerate pairing between the graded pieces.

    Matrix entries are field codes (see :mod:`guhecke.finitefield`);
    ``f_e2ebar[i][j]`` is the i-th conjugate-piece coordinate of F applied
    to the j-th e-basis vector, and similarly throughout.
    """

    p: int
    ne: int
    nebar: int
    f_e2ebar: Mat
    f_ebar2e: Mat
    v_e2ebar: Mat
    v_ebar2e: Mat
    gram: Mat

    def __post_init__(self):
        for name in ("f_e2ebar", "f_ebar2e", "v_e2ebar", "v_ebar2e", "gram"):
            object.__setattr__(self, name,
                               tuple(tuple(row) for row in getattr(self, name)))
        fld = gfp2(self.p)
        if self.ne < 1 or self.nebar < 1:
            raise ValueError("graded pieces must be nonzero")
        shapes = {
            "f_e2ebar": (self.nebar, self.ne),
            "f_ebar2e": (self.ne, self.nebar),
            "v_e2ebar": (self.nebar, self.ne),
            "v_ebar2e": (self.ne, self.nebar),
            "gram": (self.ne, self.nebar),
        }
        for name, (nrows, ncols) in shapes.items():
            m = getattr(self, name)
            if len(m) != nrows or any(len(row) != ncols for row in m):
                raise ValueError(f"{name} must be {nrows}x{ncols}")
            for row in m:
                for x in row:
                    if not 0 <= x < fld.size:
                        raise ValueError(f"{name} entry {x} is not a field code")
        # F V = V F = 0: the inner twist folds into the matrix by Frobenius.
        zero_checks = (
            (self.f_ebar2e, self.v_e2ebar),
            (self.f_e2ebar, self.v_ebar2e),
            (self.v_ebar2e, self.f_e2ebar),
            (self.v_e2ebar, self.f_ebar2e),
        )
        for outer, inner in zero_checks:
            prod = mat_mul(fld, outer, mat_frob(fld, inner))
            if any(any(row) for row in prod):
                raise ValueError("F V = V F = 0 fails")
        if self.ne != self.nebar or rank(fld, self.gram) != self.ne:
            raise ValueError("pairing must be nondegenerate")

    @property
    def field(self) -> GFp2:
        return gfp2(self.p)

    def dims(self) -> tuple[int, int]:
        return self.ne, self.nebar

    def f_matrix(self, grade: int) -> Mat:
        return self.f_e2ebar if grade == 0 else self.f_ebar2e

    def v_matrix(self, grade: int) -> Mat:
        """Matrix of V restricted to the given source grade."""
        return self.v_e2ebar if grade == 0 else self.v_ebar2e

    def to_json(self) -> dict:
        fld = self.field

        def encode(m):
            return [[list(fld.pair(x)) for x in row] for row in m]

        return {
            "p": self.p, "ne": self.ne, "nebar": self.nebar,
            "F_e2ebar": encode(self.f_e2ebar),
            "F_ebar2e": encode(self.f_ebar2e),
            "V_e2ebar": encode(self.v_e2ebar),
            "V_ebar2e": encode(self.v_ebar2e),
            "gram": encode(self.gram),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DieudonneSpace":
        """The space written by :meth:`to_json`: its numbers must be JSON
        integers, and entries are reduced mod p."""
        p, ne, nebar = _json_ints("p, ne and nebar", data["p"], data["ne"],
                                  data["nebar"])
        fld = gfp2(p)

        def decode(m):
            return tuple(tuple(fld.from_pair(_json_ints("entries", *x))
                               for x in row) for row in m)

        return cls(
            p=p, ne=ne, nebar=nebar,
            f_e2ebar=decode(data["F_e2ebar"]),
            f_ebar2e=decode(data["F_ebar2e"]),
            v_e2ebar=decode(data["V_e2ebar"]),
            v_ebar2e=decode(data["V_ebar2e"]),
            gram=decode(data["gram"]),
        )


def v_ranks(space: DieudonneSpace) -> tuple[int, int]:
    """(rank V_e2ebar, rank V_ebar2e): the rank of V out of each grade.
    :func:`check_bt1` and :func:`signature` both read these, so a caller
    that needs both passes them in once computed."""
    fld = space.field
    return rank(fld, space.v_e2ebar), rank(fld, space.v_ebar2e)


def signature(space: DieudonneSpace,
              ranks: tuple[int, int] | None = None) -> tuple[int, int]:
    """(dim M_e / V M_ebar, dim M_ebar / V M_e) by exact rank computation;
    ``ranks`` are the space's :func:`v_ranks` if already known."""
    rank_v_e, rank_v_ebar = ranks or v_ranks(space)
    return space.ne - rank_v_ebar, space.nebar - rank_v_e


def pairing_law_holds(space: DieudonneSpace) -> bool:
    """<F x, y> = <x, V y>^p on all pairs of graded basis vectors.

    The graded pieces are isotropic, so only x and y of the same grade
    can give a nonzero pairing; there <x, y> = x^T G y for x in the e
    piece and y in the conjugate piece, with G the gram block, and
    <y, x> = -<x, y>.  With F_e, V_e the maps out of the e piece and
    F_ebar, V_ebar those out of the conjugate piece, the law on basis
    vectors is the two matrix identities

        -(G F_e)^T = frob(G V_e)   and   -(G^T F_ebar)^T = frob(G^T V_ebar).
    """
    fld = space.field
    gram_t = mat_transpose(space.gram)
    for g, f, v in ((space.gram, space.f_e2ebar, space.v_e2ebar),
                    (gram_t, space.f_ebar2e, space.v_ebar2e)):
        lhs = tuple(tuple(fld.neg(x) for x in col)
                    for col in zip(*mat_mul(fld, g, f)))
        if lhs != mat_frob(fld, mat_mul(fld, g, v)):
            return False
    return True


def check_bt1(space: DieudonneSpace,
              ranks: tuple[int, int] | None = None) -> bool:
    """True iff Im F = Ker V and Im V = Ker F (gradedwise, as subspace
    equalities) and the pairing law holds on all basis pairs; ``ranks``
    are the space's :func:`v_ranks` if already known.

    The space already has F V = V F = 0, so Im F_g <= Ker V_(1-g) and
    Im V_(1-g) <= Ker F_g; a semilinear kernel has dimension dim - rank
    and both pieces have dimension n, so these two equalities are the
    one rank identity rank F_g + rank V_(1-g) = n, for g = 0 and 1."""
    fld = space.field
    rank_v = ranks or v_ranks(space)
    for g in (0, 1):
        if rank(fld, space.f_matrix(g)) + rank_v[1 - g] != space.ne:
            return False
    return pairing_law_holds(space)


def direct_sum(first: DieudonneSpace, *rest: DieudonneSpace) -> DieudonneSpace:
    """Block sum of all structure matrices, in order; gram block-diagonal.
    The sum is validated once, as a new space."""
    spaces = (first, *rest)
    for other in rest:
        if other.p != first.p:
            raise ValueError(f"prime mismatch: {first.p} vs {other.p}")

    def block(name, source_is_e):
        widths = [s.ne if source_is_e else s.nebar for s in spaces]
        total = sum(widths)
        rows = []
        offset = 0
        for s, width in zip(spaces, widths):
            left, right = (0,) * offset, (0,) * (total - offset - width)
            rows.extend(left + row + right for row in getattr(s, name))
            offset += width
        return tuple(rows)

    return DieudonneSpace(
        p=first.p, ne=sum(s.ne for s in spaces),
        nebar=sum(s.nebar for s in spaces),
        f_e2ebar=block("f_e2ebar", True),
        f_ebar2e=block("f_ebar2e", False),
        v_e2ebar=block("v_e2ebar", True),
        v_ebar2e=block("v_ebar2e", False),
        gram=block("gram", False),
    )


def model_space(n: int, r: int, p: int) -> DieudonneSpace:
    """The candidate space of type r: banded rank-2r block plus n-r
    supersingular planes; signature (n-1, 1) for every r."""
    if not 1 <= r <= n:
        raise ValueError(f"type r={r} out of range 1..{n}")
    return direct_sum(make_B(r, p).reduction(),
                      *[make_SS(p).reduction()] * (n - r))


# ---------------------------------------------------------------------------
# Base change


def basechange(space: DieudonneSpace, p_mat: Mat, q_mat: Mat,
               p_inv: Mat, q_inv: Mat) -> DieudonneSpace:
    """Rewrite the space in the bases given by the columns of p_mat (on the
    e piece) and q_mat (on the conjugate piece).

    Semilinear transformation rule: a matrix from grade g to grade h
    becomes inv(T_h) @ M @ frob(T_g); the pairing becomes
    transpose(T_e) @ gram @ T_ebar.  The result is isomorphic to the
    input by construction, and is validated as a new space all the same.
    The caller passes the inverses p_inv and q_inv (both callers draw
    each frame with its inverse, from one elimination); they are taken
    as given.
    """
    fld = space.field
    p_tw = mat_frob(fld, p_mat)
    q_tw = mat_frob(fld, q_mat)
    return DieudonneSpace(
        p=space.p, ne=space.ne, nebar=space.nebar,
        f_e2ebar=mat_mul(fld, q_inv, mat_mul(fld, space.f_e2ebar, p_tw)),
        f_ebar2e=mat_mul(fld, p_inv, mat_mul(fld, space.f_ebar2e, q_tw)),
        v_e2ebar=mat_mul(fld, q_inv, mat_mul(fld, space.v_e2ebar, p_tw)),
        v_ebar2e=mat_mul(fld, p_inv, mat_mul(fld, space.v_ebar2e, q_tw)),
        gram=mat_mul(fld, mat_transpose(p_mat), mat_mul(fld, space.gram, q_mat)),
    )


def _random_invertible(fld: GFp2, size: int,
                       rng: random.Random) -> tuple[Mat, Mat]:
    """(m, m^-1) for the first uniformly drawn size x size matrix m that
    is invertible.  Each candidate costs one elimination, the rref of
    [m | I] inside :func:`mat_inv`, which decides invertibility and gives
    the inverse together."""
    while True:
        m = tuple(tuple(rng.randrange(fld.size) for _ in range(size))
                  for _ in range(size))
        try:
            return m, mat_inv(fld, m)
        except ZeroDivisionError:
            pass


def random_frames(fld: GFp2, ne: int, nebar: int,
                  seed: int) -> tuple[tuple[Mat, Mat], tuple[Mat, Mat]]:
    """The seeded draws of :func:`random_basechange`: ((P, P^-1),
    (Q, Q^-1)) on pieces of dimensions ne and nebar.  They depend on the
    field, the seed and the two dimensions only, so one draw serves every
    space of the same shape."""
    rng = random.Random(seed)
    return _random_invertible(fld, ne, rng), _random_invertible(fld, nebar, rng)


def random_basechange(space: DieudonneSpace, seed: int) -> DieudonneSpace:
    """A seeded random isomorphic copy of the space."""
    (p_mat, p_inv), (q_mat, q_inv) = random_frames(space.field, space.ne,
                                                   space.nebar, seed)
    return basechange(space, p_mat, q_mat, p_inv, q_inv)


# ---------------------------------------------------------------------------
# Fingerprint and classification


# Worklist steps after which a fingerprint closure is given up.
CLOSURE_STEP_LIMIT = 100_000


def _closure(start, successors) -> set:
    """The smallest set holding ``start`` and closed under ``successors``
    (a node -> iterable of nodes); every node is expanded exactly once.
    Raises ClosureLimitError after CLOSURE_STEP_LIMIT expansions."""
    seen = set(start)
    work = list(start)
    steps = 0
    while work:
        steps += 1
        if steps > CLOSURE_STEP_LIMIT:
            raise ClosureLimitError("canonical filtration failed to stabilize")
        for nxt in successors(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def fingerprint(space: DieudonneSpace) -> tuple[tuple[int, int, int], ...]:
    """Isomorphism-invariant signature of the canonical filtration.

    Close {0, full} (in each graded piece) under X -> F(X) and
    X -> preimage of X under V, then collect the sorted multiset of
    (dim X, dim F(X), dim(X & Ker F)) over all subspaces found.  The
    last entry is dim X - dim F(X), by rank-nullity for F restricted to
    X; every subspace is kept as its reduced basis.

    Each node costs two eliminations.  F(X) is the rref of the one
    product frob(X) @ transpose(F).  The V-preimage is the Frobenius
    twist of a linear kernel, which :func:`kernel_basis` returns already
    reduced; Frobenius fixes 0 and 1, so the twist stays reduced.  F(0)
    = 0 and V^-1(full) = full are known without elimination.
    """
    fld = space.field
    dims = space.dims()
    f_rows = {g: mat_transpose(space.f_matrix(g)) for g in (0, 1)}

    def f_image(grade, basis):
        if not basis:
            return 1 - grade, ()
        return 1 - grade, rref(fld, mat_mul(fld, mat_frob(fld, basis),
                                            f_rows[grade]))

    def v_preimage(grade, basis):
        # {y in the other piece : V(y) in span(basis)}
        src = 1 - grade
        if len(basis) == dims[grade]:
            return src, identity_mat(dims[src])
        ann = annihilator_rows(fld, basis, dims[grade])
        lin = kernel_basis(fld, mat_mul(fld, ann, space.v_matrix(src)),
                           dims[src])
        return src, mat_frob(fld, lin)

    image_dim: dict = {}

    def successors(node):
        img = f_image(*node)
        image_dim[node] = len(img[1])
        return img, v_preimage(*node)

    seen = _closure([(0, ()), (1, ()), (0, identity_mat(dims[0])),
                     (1, identity_mat(dims[1]))], successors)
    return tuple(sorted((len(x), image_dim[g, x], len(x) - image_dim[g, x])
                        for g, x in seen))


@lru_cache(maxsize=None)
def _model_fingerprints(n: int) -> tuple[tuple[int, tuple], ...]:
    """(r, fingerprint of the type-r model) for r = 1..n, in closed form:
    :func:`fingerprint` of ``model_space(n, r, p)``, which is the same for
    every p (the test suite checks the two agree).

    Mod p the model is B + S, the banded block B = B_r and the n - r
    supersingular planes S.  On S, F and V kill the conjugate lines and
    map each e line onto its conjugate line, so every subspace in the
    closure holds all of S's piece in its grade or none of it, and its
    part in B is a node of B's own closure.  That is a complete flag
    B_0 < ... < B_r in each grade: the e piece fills in the order e_r,
    e_(r-2), ..., then the other e_i ascending, the conjugate piece
    f_(r-1), f_(r-3), ..., then the other f_j ascending.  In grade g the
    closure holds B_j for j <= c_g and B_j + S_g for j >= c_g, with
    c_0 = ceil(r/2) and c_1 = floor(r/2); for r = n the two are one node
    at j = c_g.  On the e piece F has rank j on B_j until its kernel e_1
    enters (j > floor(r/2)), then j - 1, and n - r more on B_j + S_e; on
    the conjugate piece it has rank 1 once f_1 has entered
    (j >= ceil(r/2)), else 0.
    """
    prints = []
    for r in range(1, n + 1):
        ss, low, high = n - r, r // 2, (r + 1) // 2
        # per grade: c_g, the rank of F on B_j, and its rank on S_g
        grades = ((high, lambda j: j - (j > low), ss),
                  (low, lambda j: int(j >= high), 0))
        nodes = set()
        for grade, (split, rank_b, rank_s) in enumerate(grades):
            nodes.update((grade, j, rank_b(j)) for j in range(split + 1))
            nodes.update((grade, j + ss, rank_b(j) + rank_s)
                         for j in range(split, r + 1))
        prints.append((r, tuple(sorted((d, k, d - k) for _, d, k in nodes))))
    return tuple(prints)


def classify_type(space: DieudonneSpace, n: int) -> int:
    """The unique r with the space isomorphic to the type-r model.

    Raises NotBT1Error if the space is not a BT1 of signature (n-1, 1)
    with graded pieces of dimension n, and NoMatchError if no model
    fingerprint matches.
    """
    if space.dims() != (n, n):
        raise NotBT1Error(
            f"graded dimensions {space.dims()} != ({n}, {n})")
    ranks = v_ranks(space)
    if not check_bt1(space, ranks):
        raise NotBT1Error("Im F = Ker V / Im V = Ker F or the pairing law fails")
    sig = signature(space, ranks)
    if sig != (n - 1, 1):
        raise NotBT1Error(f"signature {sig} != ({n - 1}, 1)")
    fp = fingerprint(space)
    for r, model_fp in _model_fingerprints(n):
        if fp == model_fp:
            return r
    raise NoMatchError(f"fingerprint matches no model for n={n}, p={space.p}")


# ---------------------------------------------------------------------------
# Newton slopes of integral models


def char_poly(mat: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial det(t - mat) of an integer matrix,
    coefficients by ascending power.

    Faddeev-LeVerrier trace recursion over Python ints: M_1 = I,
    c_{d-k} = -tr(A*M_k)/k, M_{k+1} = A*M_k + c_{d-k}*I.  The division by
    k is exact because det(t - A) has integer coefficients; a nonzero
    remainder raises ArithmeticError rather than give a wrong coefficient.
    Products skip the zero entries of A.

    No program path calls it: newton_slopes reads the cycles of F.  It
    stays as the first half of the slope reference in the test suite, and
    because the benchmark replay wraps it as dieudonne.char_poly."""
    size = len(mat)
    rows = [[(l, x) for l, x in enumerate(row) if x] for row in mat]
    coeffs = [0] * size + [1]
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for k in range(1, size + 1):
        m = [[sum(x * m[l][j] for l, x in row) for j in range(size)]
             for row in rows]
        c, rem = divmod(-sum(m[i][i] for i in range(size)), k)
        if rem:
            raise ArithmeticError(f"inexact division by {k}: non-integer entries")
        coeffs[size - k] = c
        for i in range(size):
            m[i][i] += c
    return coeffs


def newton_slopes(module: DieudonneModuleZ) -> SlopeMultiset:
    """Newton slopes of the model, read off the cycles of F; ValueError
    unless F has exactly one nonzero entry in each row and each column.
    A cycle of length l whose weights multiply to w spans an F-stable
    summand with characteristic polynomial t^l - w, so it adds slope
    v_p(w)/l, l times (Manin 1963)."""
    arrows = {}  # column j -> (row i, entry x): F e_j = x e_i
    for i, row in enumerate(module.f_mat):
        nonzero = [(j, (i, x)) for j, x in enumerate(row) if x]
        if len(nonzero) != 1 or nonzero[0][0] in arrows:
            raise ValueError("F is not monomial: it needs exactly one "
                             "nonzero entry in each row and each column")
        arrows.update(nonzero)
    pairs = []
    while arrows:
        start, (j, w) = arrows.popitem()
        length = 1
        while j != start:
            j, x = arrows.pop(j)
            w *= x
            length += 1
        valuation = 0
        while w % module.p == 0:
            w //= module.p
            valuation += 1
        pairs.append((Fraction(valuation, length), length))
    return SlopeMultiset.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Isocrystal shapes and stratum dimensions


@dataclass(frozen=True)
class SimpleFactor:
    """One simple isocrystal factor: slope, dimension, and how many copies
    appear in the decomposition."""

    slope: Fraction
    dim: int
    count: int

    def to_json(self) -> dict:
        return {"slope": str(self.slope), "dim": self.dim, "count": self.count}


@dataclass(frozen=True)
class IsocrystalShape:
    n: int
    r: int
    slopes: SlopeMultiset
    factors: tuple[SimpleFactor, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r,
                "slopes": self.slopes.to_json(),
                "factors": [f.to_json() for f in self.factors]}


def paired_block_slopes(r: int) -> list[tuple[Fraction, int]]:
    """Slope pairs 1/2 -+ 1/(2r), each of total multiplicity 2r, of the
    non-supersingular block attached to r >= 1 (empty for r = 0)."""
    if r == 0:
        return []
    return [(Fraction(r - 1, 2 * r), 2 * r), (Fraction(r + 1, 2 * r), 2 * r)]


def isocrystal_shape(n: int, r: int) -> IsocrystalShape:
    """Shape of the isocrystal of a signature-(n-1,1) module of Newton
    type r: the paired block for r plus n-2r supersingular factors.

    For even r the two paired factors are simple of dimension 2r and
    appear once each; for odd r they split as two copies of dimension r.
    """
    _require_odd(n)
    if not 0 <= r <= (n - 1) // 2:
        raise ValueError(f"r={r} out of range 0..{(n - 1) // 2}")
    paired = paired_block_slopes(r)
    dim, count = (2 * r, 1) if r % 2 == 0 else (r, 2)
    factors = [SimpleFactor(slope, dim, count) for slope, _ in paired]
    factors.append(SimpleFactor(Fraction(1, 2), 2, n - 2 * r))
    slopes = SlopeMultiset.from_pairs(
        paired + [(Fraction(1, 2), 2 * (n - 2 * r))])
    return IsocrystalShape(n=n, r=r, slopes=slopes, factors=tuple(factors))


@dataclass(frozen=True)
class StratumRow:
    """One Ekedahl-Oort stratum: its type r, dimension, Newton data."""

    r: int
    dim: int
    ordinary: bool  # the mu-ordinary row, r = 2 (see strata_dims)
    supersingular: bool
    slopes: SlopeMultiset

    def to_json(self) -> dict:
        return {"r": self.r, "dim": self.dim, "ordinary": self.ordinary,
                "supersingular": self.supersingular,
                "slopes": self.slopes.to_json()}


def strata_dims(n: int) -> list[StratumRow]:
    """Dimension table of the strata for types r = 1..n.

    Even types have dimension n - r/2 and refine the Newton stratum of
    type r/2; odd types have dimension (r-1)/2 and are supersingular.
    The unique open stratum is r = 2.  Its slopes are 0 and 1 twice each
    and 1/2 with multiplicity 2(n-2): it is the mu-ordinary Newton type,
    not the ordinary one (slopes 0 and 1 only), which no row has.  The
    row's flag keeps the name ``ordinary``, as it is part of the JSON
    and CSV output; it marks the mu-ordinary row.
    """
    _require_odd(n)
    rows = []
    for r in range(1, n + 1):
        if r % 2 == 0:
            dim = n - r // 2
            slopes = isocrystal_shape(n, r // 2).slopes
        else:
            dim = (r - 1) // 2
            slopes = SlopeMultiset.from_pairs([(Fraction(1, 2), 2 * n)])
        rows.append(StratumRow(r=r, dim=dim, ordinary=(r == 2),
                               supersingular=(r % 2 == 1), slopes=slopes))
    return rows
