"""Arithmetic and linear algebra over F_{p^2}, p an odd prime.

Elements of F_{p^2} = F_p[u]/(u^2 - c), with c the smallest quadratic
non-residue mod p, are encoded as the single integer a + p*b for the
element a + b*u.  A :class:`GFp2` instance precomputes full addition,
multiplication and Frobenius tables, and reads its negation and
inversion tables off the multiplication table, so all field operations
are table lookups; this keeps the elimination below fast enough for the
classification search.  No other module reads the tables: the rest of
the package goes through the element operations and the matrix routines
here.  :func:`rref` is the only routine that does row operations: ranks,
kernels and :func:`mat_inv` (the rref of [m | I]) all go through it, one
elimination each.

Frobenius x -> x^p sends a + b*u to a - b*u (conjugation), hence is an
involution; in particular its inverse is itself, which the semilinear
operators in :mod:`guhecke.dieudonne` rely on.  It fixes 0 and 1, so it
maps a matrix in reduced row echelon form to one in that form.

Matrices are tuples of row tuples of element codes and act on coordinate
column vectors; subspaces are handled as row-span bases in reduced row
echelon form, which doubles as a canonical, hashable fingerprint of the
subspace.  :func:`kernel_basis` returns its basis in that form too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


# Miller-Rabin with the prime bases 2..41 decides primality exactly for
# every p below this bound (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, O(log p) multiplications per base.

    Raises ValueError for p >= MR_EXACT_BOUND, where these bases are no
    longer known to be a proof.
    """
    if p < 2:
        return False
    if p >= MR_EXACT_BOUND:
        raise ValueError(f"p must be below {MR_EXACT_BOUND} for an exact "
                         f"primality test, got {p}")
    for a in MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# The largest p whose tables are built: at p = 47 the addition and
# multiplication tables hold 2 * 47^4 entries, about 355 MB and 2.9 s.
TABLE_MAX_P = 47


class GFp2:
    """The field with p^2 elements, elements encoded as ints in [0, p^2).

    Tables are built lazily on first arithmetic use; the addition and
    multiplication tables are quadratic in p^2, so they are refused with
    ValueError for p > TABLE_MAX_P.  A field that is only validated, or
    only encodes and decodes elements, builds no table at any p.
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        # Euler's criterion: c is a non-residue iff c^((p-1)/2) = -1 mod p.
        self.nonresidue = next(c for c in range(2, p)
                               if pow(c, (p - 1) // 2, p) == p - 1)
        self.size = p * p

    def _table_size(self) -> int:
        """p^2, the length of every table; ValueError past TABLE_MAX_P."""
        if self.p > TABLE_MAX_P:
            raise ValueError(f"F_(p^2) arithmetic tables are built only for "
                             f"p <= {TABLE_MAX_P}, got p={self.p}")
        return self.size

    @cached_property
    def _neg(self):
        """The multiplication table's row of -1, whose code is p - 1."""
        return self._mul[self.p - 1]

    @cached_property
    def _frob(self):
        p = self.p
        return tuple(x % p + p * ((-(x // p)) % p)
                     for x in range(self._table_size()))

    @cached_property
    def _add(self):
        p, size = self.p, self._table_size()
        return tuple(tuple((x % p + y % p) % p + p * ((x // p + y // p) % p)
                           for y in range(size))
                     for x in range(size))

    @cached_property
    def _mul(self):
        p, size, c = self.p, self._table_size(), self.nonresidue
        out = []
        for x in range(size):
            a1, b1 = x % p, x // p
            out.append(tuple((a1 * (y % p) + c * b1 * (y // p)) % p
                             + p * ((a1 * (y // p) + b1 * (y % p)) % p)
                             for y in range(size)))
        return tuple(out)

    @cached_property
    def _inv(self):
        """The position of 1 in each row of the multiplication table; the
        row of 0 has none, and 0 maps to 0."""
        return tuple(row.index(1) if x else 0
                     for x, row in enumerate(self._mul))

    # -- element operations --------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[x]

    def frob(self, x: int) -> int:
        """Frobenius x -> x^p; an involution."""
        return self._frob[x]

    def embed(self, value: int) -> int:
        """The prime-field element value mod p as a field code."""
        return value % self.p

    def pair(self, x: int) -> tuple[int, int]:
        """Decode to the coordinate pair (a, b) with x = a + b*u."""
        return x % self.p, x // self.p

    def from_pair(self, ab: Sequence[int]) -> int:
        a, b = ab
        return a % self.p + self.p * (b % self.p)

    def __repr__(self) -> str:
        return f"GFp2({self.p})"


@lru_cache(maxsize=None)
def gfp2(p: int) -> GFp2:
    return GFp2(p)


# ---------------------------------------------------------------------------
# Matrices (tuples of row tuples of codes) and row-span subspaces.


@lru_cache(maxsize=None)
def identity_mat(size: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def mat_mul(fld: GFp2, a: Mat, b: Mat) -> Mat:
    """The product a @ b.  Row i is built from the zero row as the sum of
    a[i][k] * (row k of b) over the nonzero a[i][k] only, each through
    the multiplication table row of a[i][k], so a sparse or monomial a
    costs about one row operation per nonzero entry."""
    mul = fld._mul
    add = fld._add
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for x, b_row in zip(row, b):
            if x:
                mul_x = mul[x]
                acc = [add[s][mul_x[y]] for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def mat_frob(fld: GFp2, m: Mat) -> Mat:
    frob = fld._frob.__getitem__
    return tuple(tuple(map(frob, row)) for row in m)


def mat_neg(fld: GFp2, m: Mat) -> Mat:
    neg = fld._neg.__getitem__
    return tuple(tuple(map(neg, row)) for row in m)


def mat_vec(fld: GFp2, m: Mat, v: Vec) -> Iterator[int]:
    """m @ v, one dot product per row of m, yielded in turn, so that a
    caller looking for a nonzero entry stops at the first."""
    mul, add = fld._mul, fld._add
    for row in m:
        dot = 0
        for x, y in zip(row, v):
            dot = add[dot][mul[x][y]]
        yield dot


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def rref(fld: GFp2, rows: Iterable[Vec]) -> Mat:
    """Reduced row echelon form with zero rows dropped: the canonical basis
    of the row span, usable as a hashable subspace identifier.

    Column ``col``'s pivot row is zero left of ``col`` (every earlier
    column was cleared in it or had no pivot below the rank), so it is
    scaled and the other rows are updated, from ``col`` on only; row r
    subtracts f times the pivot row by adding ``mul[neg[f]]`` of each
    entry, one table row per update.
    """
    work = [list(r) for r in rows]
    if not work:
        return ()
    nrows = len(work)
    mul = fld._mul
    add = fld._add
    neg = fld._neg
    inv = fld._inv
    rank = 0
    for col in range(len(work[0])):
        for pivot in range(rank, nrows):
            if work[pivot][col]:
                break
        else:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        row = work[rank]
        scale = mul[inv[row[col]]]
        tail = [scale[x] for x in row[col:]]
        row[col:] = tail
        for r, row_r in enumerate(work):
            f = row_r[col]
            if f and r != rank:
                sub = mul[neg[f]]
                row_r[col:] = [add[x][sub[y]] for x, y in zip(row_r[col:], tail)]
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in work[:rank])


def rank(fld: GFp2, rows: Iterable[Vec]) -> int:
    return len(rref(fld, rows))


def kernel_basis(fld: GFp2, m: Mat, ncols: int) -> Mat:
    """Basis (as rows) of the right null space {v : m @ v = 0} of the
    matrix m with ncols columns (which m, when it has no rows, cannot
    tell), in reduced row echelon form, so it equals its own :func:`rref`.

    m is eliminated with its columns reversed.  In those coordinates each
    annihilator row (see :func:`annihilator_rows`) ends in a 1 at its own
    free column, which no other row touches, and has its other entries at
    pivot columns only.  Read back in the original order, the rows, last
    first, are therefore already reduced, and no second elimination is
    needed."""
    reduced = rref(fld, (row[::-1] for row in m))
    return tuple(row[::-1] for row in
                 reversed(annihilator_rows(fld, reduced, ncols)))


def mat_inv(fld: GFp2, m: Mat) -> Mat:
    """The inverse of a square matrix, read off the rref of [m | I].

    [m | I] has full row rank, so its rref keeps every row, and it is
    [I | m^-1] exactly when m is invertible.  Otherwise the left block has
    a pivot missing, and the first row whose pivot lies right of the
    diagonal has a 0 on it; raises ZeroDivisionError then."""
    size = len(m)
    reduced = rref(fld, (tuple(row) + unit
                         for row, unit in zip(m, identity_mat(size))))
    if any(row[i] != 1 for i, row in enumerate(reduced)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[size:] for row in reduced)


def annihilator_rows(fld: GFp2, basis: Mat, ambient: int) -> Mat:
    """Rows c with c . b = 0 for every basis row b; cuts out the row span:
    a vector lies in span(basis) iff it is killed by all returned rows.

    ``basis`` must be in reduced row echelon form; it is not reduced
    again.  Each non-pivot column gives one row, so an empty basis gives
    the identity."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    neg = fld._neg
    out = []
    for fc in range(ambient):
        if fc in pivots:
            continue
        v = [0] * ambient
        v[fc] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = neg[row[fc]]
        out.append(tuple(v))
    return tuple(out)
