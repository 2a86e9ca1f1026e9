"""Exact matrix arithmetic over the integers and the rationals.

Matrices are sequences of rows of ints or Fractions.  :func:`mat_mul` is
the one sparse product and :func:`gauss_jordan` the one elimination over
Q.  Their one caller is the determinant cross-check in
:mod:`guhecke.hecke`, which multiplies diagonal and antidiagonal Fraction
matrices and takes determinants and inverses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    """a @ b over the nonzero products a[i][k] * b[k][j] only, as a tuple
    of row tuples.  An entry that no product reaches is the int 0, so a
    product of int matrices stays integral."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def gauss_jordan(a: Sequence[Sequence]) -> tuple[Fraction, Matrix | None]:
    """(det(a), a^-1) for a square matrix of ints or Fractions, from one
    Gauss-Jordan elimination of [a | I]; the inverse is None when
    det(a) = 0.  Each pivot is inverted as a Fraction, so an int entry
    never divides to a float, and the inverse's entries are Fractions.
    The pivot row is zero left of its column, and zero entries of it are
    skipped."""
    size = len(a)
    zero, one = Fraction(0), Fraction(1)
    m = [list(row) + [one if i == j else zero for j in range(size)]
         for i, row in enumerate(a)]
    det = one
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return zero, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / Fraction(m[col][col])
        tail = [v * inv if v else v for v in m[col][col:]]
        m[col][col:] = tail
        for r, row in enumerate(m):
            f = row[col]
            if f and r != col:
                row[col:] = [v - f * w if w else v
                             for v, w in zip(row[col:], tail)]
    return det, [row[size:] for row in m]
