"""Exact sparse Laurent polynomials over the rationals, and the
t-polynomials of the Hecke factorization.

The ring has a formal prime variable ``q`` and torus variables
``x0, x1, ..., xn``, all invertible.  A monomial q^e * x0^e0 * ... * xn^en
is its *exponent row*, the plain tuple of ints (e, e0, ..., en).  A
:class:`LaurentPoly` maps each row to a nonzero rational coefficient: an
``int`` when it is integral, else a :class:`~fractions.Fraction`; any
other coefficient raises TypeError.  The two hash, compare, sort and
print alike, so the choice never shows in equality, ordering or output;
it only lets the integral polynomials of the Hecke certificate run on
Python int arithmetic.  All arithmetic is exact -- there is no floating
point anywhere in this package.  The zero polynomial is the empty map.
A LaurentPoly has no ring operators of its own: it is built from a row
map or a single term, negated, compared, evaluated and rendered, and
multiplied only as a coefficient of a :class:`TPoly`.

Packed monomial codes.  Internally each row is one nonnegative int, its
*code*: n+2 lanes of 16 bits, in row order with q in the most
significant lane, each lane holding its exponent e plus the bias 2^15.
Hence:

* the code of a product is the sum of the codes minus the code of 1
  (every lane at its bias), one integer add;
* the integer order of codes is the lexicographic order on rows, so
  sorting, printing, JSON output and hashing sort plain ints.

A lane holds |e| <= :data:`LANE_MAX` = 2^15 - 1 and no more.  Each
polynomial carries a bound on its largest |exponent|: the exact maximum
when built from rows, the sum of the operands' bounds for a product,
the larger bound for a sum of products.  A product whose bound would
pass :data:`LANE_MAX` first retries with the operands' exact maxima,
then raises :class:`OverflowError`, so a lane never wraps; encoding a
row checks every exponent the same way.  Codes are decoded in C, a
whole polynomial at a time (``int.to_bytes`` into an ``array``), back to
rows: :meth:`LaurentPoly.exponent_rows` is the one decoded view.

The JSON term format has one definition, :meth:`LaurentPoly.json_text`:
compact text of the term list in canonical order, rendered straight from
the sorted codes.  :meth:`LaurentPoly.to_json` parses that text back
into term dicts, and the CLI writes the text as it is.

:class:`TPoly` is a polynomial in an extra indeterminate ``t`` whose
coefficients are LaurentPolys.  It multiplies, and it divides exactly
by a monic divisor (the program divides only by t - c), raising
:class:`NonZeroRemainderError` when the division does not come out
exact; a divisor that is not monic is refused with ValueError.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

Coeff = int | Fraction
Row = tuple[int, ...]

LANE_MAX = 2 ** 15 - 1
"""The largest |exponent| a monomial code holds in each of its lanes."""

_SWAP = sys.byteorder == "little"


class NonZeroRemainderError(ArithmeticError):
    """Exact division in t left a nonzero remainder.

    Carries the offending remainder (and the partial quotient) so callers
    can report a failed factorization certificate precisely.
    """

    def __init__(self, remainder: "TPoly", quotient: "TPoly"):
        super().__init__("polynomial division left a nonzero remainder")
        self.remainder = remainder
        self.quotient = quotient


def _exact(c) -> Coeff:
    """The rational number c as an int when it is integral, else as a
    Fraction; the one place a coefficient's representation is chosen.
    Any other type than int or Fraction (a bool, a float) is a TypeError."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return c.numerator if c.denominator == 1 else c


# -- packed monomial codes ----------------------------------------------------

def _one_code(n: int) -> int:
    """The code of the monomial 1: each of the n+2 lanes at its bias."""
    return int.from_bytes(b"\x80\x00" * (n + 2), "big")


def _encode(row: Row, one: int) -> tuple[int, int]:
    """(code, max |exponent|) of row; one is :func:`_one_code` for its n.

    A lane read as a signed 16-bit int is e's two's complement, which is
    the biased lane with its top bit flipped, hence the xor with ``one``.
    A lane that is not an int (a bool, a float) is a TypeError.
    """
    if any(type(e) is not int for e in row):
        raise TypeError(f"exponent row {row!r} has a lane that is not an int")
    lanes = array("h", row)  # OverflowError past 16 bits
    bound = max(map(abs, lanes))
    if bound > LANE_MAX:
        raise OverflowError(f"{row} has an exponent past the lane limit "
                            f"{LANE_MAX}")
    if _SWAP:
        lanes.byteswap()
    return int.from_bytes(lanes, "big") ^ one, bound


def _decode(n: int, codes: Iterable[int]) -> list[int]:
    """The exponents of codes, flat: n+2 ints (q, x0..xn) per code."""
    one, width = _one_code(n), 2 * (n + 2)
    lanes = array("h", b"".join([(c ^ one).to_bytes(width, "big")
                                 for c in codes]))
    if _SWAP:
        lanes.byteswap()
    return lanes.tolist()


def _rows(n: int, codes: Iterable[int]) -> list[Row]:
    """The exponent rows of codes, in order."""
    flat, width = _decode(n, codes), n + 2
    return [tuple(flat[k:k + width]) for k in range(0, len(flat), width)]


def _mul_into(sums: dict[int, Coeff], lhs: "LaurentPoly",
              rhs: "LaurentPoly") -> int:
    """Add lhs * rhs into the code map sums, in place, and return the
    product's exponent bound.

    Raises OverflowError, before touching sums, if a product exponent
    could leave its lane.  The sums may be left with zeros and integral
    Fractions; :meth:`LaurentPoly._from_sums` clears both.  A constant
    rhs (such as the leading 1 of a monic factor) adds the lhs codes as
    they are.
    """
    bound = lhs._bound + rhs._bound
    if bound > LANE_MAX:
        bound = lhs._exact_bound() + rhs._exact_bound()
        if bound > LANE_MAX:
            raise OverflowError(
                f"a product exponent up to {bound} would pass the lane "
                f"limit {LANE_MAX}")
    get = sums.get
    one = _one_code(lhs.n)
    right = rhs._codes
    left = lhs._codes.items()
    if len(right) == 1 and one in right:
        c2 = right[one]
        if c2 == 1 and not sums:
            sums.update(lhs._codes)
            return bound
        for code, c1 in left:
            sums[code] = get(code, 0) + c1 * c2
        return bound
    for code2, c2 in right.items():
        shift = code2 - one
        for code1, c1 in left:
            code = code1 + shift
            sums[code] = get(code, 0) + c1 * c2
    return bound


def _term_str(row: Row, coeff: Coeff) -> str:
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


class LaurentPoly:
    """An exact Laurent polynomial in q, x0..xn with rational coefficients.

    The terms are kept as a map from packed row code to nonzero
    coefficient (an int when integral, else a Fraction), with a bound on
    the largest |exponent|; see the module docstring.  No coefficient is
    ever a float.
    """

    __slots__ = ("n", "_codes", "_bound")

    def __init__(self, n: int, terms: Mapping[Row, Coeff] | None = None):
        one = _one_code(n)
        codes: dict[int, Coeff] = {}
        bound = 0
        if terms:
            for row, coeff in terms.items():
                if len(row) != n + 2:
                    raise ValueError("monomial dimension mismatch")
                c = _exact(coeff)
                if c:
                    code, b = _encode(row, one)
                    codes[code] = c
                    bound = max(bound, b)
        self.n = n
        self._codes = codes
        self._bound = bound

    @classmethod
    def _wrap(cls, n: int, codes: dict[int, Coeff], bound: int) -> "LaurentPoly":
        """A polynomial on a code map of nonzero normalised coefficients."""
        res = cls.__new__(cls)
        res.n = n
        res._codes = codes
        res._bound = bound
        return res

    @classmethod
    def _from_sums(cls, n: int, sums: Mapping[int, Coeff],
                   bound: int) -> "LaurentPoly":
        """Wrap a code map built by this module's own arithmetic: drop the
        zero sums and normalise the rest."""
        return cls._wrap(n, {k: c if type(c) is int else _exact(c)
                             for k, c in sums.items() if c}, bound)

    def exponent_rows(self) -> dict[Row, Coeff]:
        """The map from exponent row (q, x0, ..., xn) to nonzero
        coefficient, decoded from the codes in one pass on every call."""
        return dict(zip(_rows(self.n, self._codes), self._codes.values()))

    def _exact_bound(self) -> int:
        """The largest |exponent| in the polynomial, decoded; it replaces
        the bound, which may have been a sum of operand bounds."""
        self._bound = max(map(abs, _decode(self.n, self._codes)), default=0)
        return self._bound

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls._wrap(n, {_one_code(n): 1}, 0)

    @classmethod
    def from_term(cls, row: Row, coeff: Coeff = 1) -> "LaurentPoly":
        """The single term coeff * row; the row's length fixes n."""
        return cls(len(row) - 2, {row: coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._codes

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._codes)

    def __neg__(self):
        return LaurentPoly._wrap(
            self.n, {k: -c for k, c in self._codes.items()}, self._bound)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self._codes == other._codes

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._codes.items()))))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q_val, x_vals: Sequence) -> Fraction:
        """Exact value at q=q_val, x_i=x_vals[i]; all values must be nonzero
        rationals whenever a negative exponent touches them.

        The sum runs over Python ints with one Fraction division at the
        end.  For a value a/b whose exponents lie in [lo, hi] with
        lo <= 0 <= hi, (a/b)^e = a^(e-lo) * b^(hi-e) / (a^-lo * b^hi),
        both exponents >= 0; coefficients are scaled by the lcm of their
        denominators.  A zero value under a negative exponent makes the
        common denominator 0, which raises ZeroDivisionError.
        """
        if len(x_vals) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values, got {len(x_vals)}")
        coeffs, width = self._codes.values(), self.n + 2
        flat = _decode(self.n, self._codes)
        den = scale = lcm(*(c.denominator for c in coeffs))
        powers = []
        for lane, v in enumerate(map(Fraction, (q_val, *x_vals))):
            col = flat[lane::width]
            lo, hi = min((0, *col)), max((0, *col))
            a, b = v.numerator, v.denominator
            # Entry e is a^(e-lo) * b^(hi-e); a negative e counts from the end.
            table = [a ** (e - lo) * b ** (hi - e)
                     for e in (*range(hi + 1), *range(lo, 0))]
            powers.append(map(table.__getitem__, col))
            den *= a ** -lo * b ** hi
        total = sum(c.numerator * (scale // c.denominator) * prod(term)
                    for c, term in zip(coeffs, zip(*powers)))
        return Fraction(total, den)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Row, Coeff]]:
        codes = sorted(self._codes)
        return list(zip(_rows(self.n, codes),
                        map(self._codes.__getitem__, codes)))

    def __str__(self) -> str:
        if not self._codes:
            return "0"
        parts = []
        for row, coeff in self.sorted_terms():
            if not parts:
                parts.append(_term_str(row, coeff))
            elif coeff < 0:
                parts.append(" - " + _term_str(row, -coeff))
            else:
                parts.append(" + " + _term_str(row, coeff))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def json_text(self) -> str:
        """The term list as compact JSON text, terms in canonical order,
        each ``{"coeff":"3/2","q":2,"x":[...]}``: the bytes of
        ``json.dumps(self.to_json(), separators=(",", ":"))``.

        One %-template per term, filled from the sorted codes' coefficients
        and their flat decoded exponents; the str of an int or a Fraction
        needs no JSON escaping.
        """
        codes = sorted(self._codes)
        width = self.n + 2
        args: list = [None] * (len(codes) * (width + 1))
        args[::width + 1] = map(str, map(self._codes.__getitem__, codes))
        flat = _decode(self.n, codes)
        for lane in range(width):
            args[lane + 1::width + 1] = flat[lane::width]
        term = '{"coeff":"%s","q":%d,"x":[' + ",".join(["%d"] * (width - 1)) + "]}"
        return "[" + ",".join([term] * len(codes)) % tuple(args) + "]"

    def to_json(self) -> list[dict]:
        """Terms in canonical order, each `{"coeff": "3/2", "q": 2, "x": [...]}`;
        parsed from :meth:`json_text`, the one definition of the format."""
        return json.loads(self.json_text())


class TPoly:
    """A polynomial in t with LaurentPoly coefficients, trailing zeros trimmed."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[LaurentPoly] = ()):
        cs = list(coeffs)
        for c in cs:
            if c.n != n:
                raise ValueError("coefficient variable-count mismatch")
        while cs and cs[-1].is_zero():
            cs.pop()
        self.n = n
        self.coeffs = tuple(cs)

    @classmethod
    def linear(cls, root: LaurentPoly) -> "TPoly":
        """The monic linear polynomial t - root."""
        return cls(root.n, [-root, LaurentPoly.one(root.n)])

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == LaurentPoly.one(self.n)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        if self.is_zero() or other.is_zero():
            return TPoly(self.n)
        size = len(self.coeffs) + len(other.coeffs) - 1
        sums: list[dict[int, Coeff]] = [{} for _ in range(size)]
        bounds = [0] * size
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                bounds[i + j] = max(bounds[i + j], _mul_into(sums[i + j], a, b))
        return TPoly(self.n, [LaurentPoly._from_sums(self.n, s, b)
                              for s, b in zip(sums, bounds)])

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def divmod(self, divisor: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Long division by a monic divisor; ValueError for any other,
        the zero polynomial included."""
        if self.n != divisor.n:
            raise ValueError("variable-count mismatch")
        if not divisor.is_monic():
            raise ValueError("the divisor must be monic")
        lower = [-d for d in divisor.coeffs[:-1]]
        dd = divisor.degree
        if len(self.coeffs) <= dd:
            return TPoly(self.n), self
        rem = [dict(c._codes) for c in self.coeffs]
        bounds = [c._bound for c in self.coeffs]
        qcoeffs = [LaurentPoly.zero(self.n)] * (len(rem) - dd)
        for j in range(len(rem) - 1, dd - 1, -1):
            c = LaurentPoly._from_sums(self.n, rem[j], bounds[j])
            if c.is_zero():
                continue
            qcoeffs[j - dd] = c
            # c times the leading 1 cancels rem[j] exactly, and
            # rem[j] is never read again, so only the lower terms are
            # subtracted.
            for i, neg_d in enumerate(lower):
                k = j - dd + i
                bounds[k] = max(bounds[k], _mul_into(rem[k], c, neg_d))
        return TPoly(self.n, qcoeffs), TPoly(
            self.n, [LaurentPoly._from_sums(self.n, r, b)
                     for r, b in zip(rem[:dd], bounds)])

    def divide_exact(self, divisor: "TPoly") -> "TPoly":
        """Exact quotient; raises NonZeroRemainderError if division is inexact."""
        quotient, remainder = self.divmod(divisor)
        if not remainder.is_zero():
            raise NonZeroRemainderError(remainder, quotient)
        return quotient

    def evaluate(self, t_val, q_val, x_vals: Sequence) -> Fraction:
        tv = Fraction(t_val)
        total = Fraction(0)
        power = Fraction(1)
        for coeff in self.coeffs:
            if not coeff.is_zero():
                total += coeff.evaluate(q_val, x_vals) * power
            power *= tv
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg in range(self.degree, -1, -1):
            c = self.coeffs[deg]
            if c.is_zero():
                continue
            tpart = "" if deg == 0 else ("t" if deg == 1 else f"t^{deg}")
            if not tpart:
                parts.append(f"({c})")
            elif c == LaurentPoly.one(self.n):
                parts.append(tpart)
            else:
                parts.append(f"({c})*{tpart}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self})"

    def to_json(self) -> list[list[dict]]:
        """Coefficients by ascending degree in t, each a LaurentPoly term list."""
        return [c.to_json() for c in self.coeffs]
