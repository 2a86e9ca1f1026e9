"""Torus combinatorics for the unitary similitude group GU(n-1,1), n odd.

The diagonal torus has characters x1..xn (the GL_n coordinates) and x0
(the similitude coordinate).  Weights and cocharacters are identified
slot-by-slot and represented as plain coordinate tuples of length n+1,
slot 0 first.  A torus monomial q^e * x0^e0 * ... * xn^en is its
exponent row (e, e0, ..., en), the format of
:meth:`guhecke.laurent.LaurentPoly.exponent_rows`: a weight with the
exponent of the formal prime in front.  Every map below acts on rows,
and this module loads no Laurent code.

The relative Weyl group acts as the permutations w of {1..n} satisfying
w(i) + w(n+1-i) = n+1 for every i.  This is the unique constant for which
such permutations exist at all: summing the left side over i = 1..n gives
n(n+1) regardless of w, so the constant must be n+1.  (Equivalently these
are the permutations preserving the pairing i <-> n+1-i that fixes the
torus equations x̄_1 x_n = x̄_2 x_{n-1} = ...)  Every element fixes the
middle index k = (n+1)/2.  An element is its permutation tuple
(w(1), ..., w(n)), a plain tuple like a row.  :func:`weyl_group` is the
closure of the m = (n-1)/2 :func:`weyl_generators`, which keep the
pairing; acceptance criterion 2 certifies that it has all 2^m * m!
elements (type B_m), so Weyl invariance is checked on the generators.

The Galois twist acts on torus monomials (:func:`twist_row`) by

    x_i  ->  x_{n+1-i}^(-1)   (1 <= i <= n),
    x0   ->  x0 * x1 * ... * xn,
    q    ->  q,

which is the restriction to the diagonal of conjugate-transpose-inverse
composed with the order-reversing pairing, times the determinant twist on
the similitude factor.  It is an involution.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Callable, Sequence

from .guards import _require_odd

# Coordinate vectors of length n+1 (slot 0 = similitude slot).
Weight = tuple[int, ...]
# Exponent rows (q, x0, ..., xn), as LaurentPoly.exponent_rows keys them.
Row = tuple[int, ...]
# Weyl elements: the permutation tuple (w(1), ..., w(n)).
Perm = tuple[int, ...]


def weyl_group(n: int) -> tuple[Perm, ...]:
    """The closure of :func:`weyl_generators` under composition, by a
    worklist from the identity, in a fixed deterministic order: a
    subgroup of the Weyl group, all of it when it has 2^m * m! elements."""
    gens = weyl_generators(n)
    identity = tuple(range(1, n + 1))
    seen = {identity}
    out = [identity]
    for w in out:
        for g in gens:
            gw = tuple(g[i - 1] for i in w)
            if gw not in seen:
                seen.add(gw)
                out.append(gw)
    return tuple(out)


def weyl_generators(n: int) -> tuple[Perm, ...]:
    """A generating set: adjacent pair swaps (i i+1)(n+1-i n-i) for i < m,
    plus the reflection (m n+1-m).  They generate the group (criterion 2)."""
    _require_odd(n)
    m = (n - 1) // 2
    gens = []
    for i in range(1, m):
        perm = list(range(1, n + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        perm[n - i], perm[n - i - 1] = perm[n - i - 1], perm[n - i]
        gens.append(tuple(perm))
    perm = list(range(1, n + 1))
    perm[m - 1], perm[n - m] = perm[n - m], perm[m - 1]
    gens.append(tuple(perm))
    return tuple(gens)


def rho(n: int) -> Weight:
    """Half-sum of the positive roots x_i - x_j (i < j) of the GL_n factor.

    Coordinates ((n-1)/2, (n-3)/2, ..., -(n-1)/2) in slots 1..n, zero in
    slot 0; ints, because n is odd.
    """
    _require_odd(n)
    return (0,) + tuple((n + 1 - 2 * i) // 2 for i in range(1, n + 1))


def pairing(chi: Sequence[int], nu: Sequence[int]) -> int:
    """Dot product of coordinate vectors under the slotwise identification
    of characters with cocharacters."""
    if len(chi) != len(nu):
        raise ValueError(f"length mismatch: {len(chi)} vs {len(nu)}")
    return sum(a * b for a, b in zip(chi, nu))


def twist_row(row: Row) -> Row:
    """The Galois twist (see module docstring) on an exponent row
    (q, e0, e1, ..., en): q and e0 stay, and the exponent of x_i
    (i >= 1) becomes e0 - e_{n+1-i}."""
    e0 = row[1]
    return (row[0], e0, *[e0 - e for e in row[:1:-1]])


def norm_monomial(row: Row) -> Row:
    """The monomial times its Galois twist, the lane-wise sum of the two
    rows; sends x0 to the central monomial x0^2*x1*...*xn and x_i to
    x_i/x_{n+1-i}."""
    return tuple(map(add, row, twist_row(row)))


def row_permuter(w: Perm) -> Callable[[Row], Row]:
    """The action of w on exponent rows (q, e0, e1, ..., en):
    x_i -> x_{w(i)} puts the exponent of x_i into the slot of x_{w(i)},
    and q and x0 stay.  Slot j of the image reads the slot of x_i with
    w(i) = j: the indices i sorted by their images."""
    inverse = sorted(range(len(w)), key=w.__getitem__)
    return itemgetter(0, 1, *[i + 2 for i in inverse])
