"""Exact sparse Laurent polynomials over the integers, and the
t-polynomials of the Hecke factorization.

The ring has a formal prime variable ``q`` and torus variables
``x0, x1, ..., xn``, all invertible.  A monomial q^e * x0^e0 * ... * xn^en
is its *exponent row*, the plain tuple of ints (e, e0, ..., en).  A
:class:`LaurentPoly` maps each row to a nonzero ``int`` coefficient; a
coefficient of any other type, a bool or an integral rational too,
raises TypeError.  The Hecke polynomial and its quotient by t - c have
coefficients in Z[q^+-1, x^+-1], so the certificate runs on Python int
arithmetic.  All arithmetic is exact -- there is no floating point
anywhere in this package.  The zero polynomial is the empty map.
A LaurentPoly has no ring operators of its own: it is built from a row
map or a single term, negated, compared and rendered, and multiplied
only as a coefficient of a :class:`TPoly`.

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
the larger bound for a sum of products.  A product whose summed bound
would pass :data:`LANE_MAX` raises :class:`OverflowError`, even where
its exact exponents would fit, so a lane never wraps; encoding a row
checks every exponent the same way.  Codes are decoded in C, a
whole polynomial at a time (``int.to_bytes`` into an ``array``), back to
rows: :meth:`LaurentPoly.exponent_rows` is the one decoded view.

The JSON term format has one definition, :meth:`LaurentPoly.json_text`:
compact text of the term list in canonical order, rendered straight from
the sorted codes.  :meth:`LaurentPoly.to_json` parses that text back
into term dicts, and the CLI writes the text as it is.  The JSON text
and ``str`` are both rendered with no Python call per term: the sorted
codes are laid into one byte buffer and read as 32-bit words of two
lanes each (one leading pad lane when n + 2 is odd), and each word is
mapped through a cache, one per word position and format, that renders
a lane pair's text the first time it is seen.  A caller that renders
many polynomials (the CLI, all of H and R in one report; ``TPoly``, its
coefficients) passes one ``texts`` dict to hold the caches of them all;
it lives as long as the caller keeps it.

:class:`TPoly` is a polynomial in an extra indeterminate ``t`` whose
coefficients are LaurentPolys.  It multiplies, and it has one division,
by t - c for a LaurentPoly c (:meth:`TPoly.divide_exact`, synthetic
division), raising :class:`NonZeroRemainderError` when the division does
not come out exact.  :meth:`TPoly.evaluate` is the one evaluation, at a
rational point.
"""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import prod
from typing import Iterable, Mapping, Sequence

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
        super().__init__(f"remainder {remainder}")
        self.remainder = remainder
        self.quotient = quotient


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


def _mul_into(sums: dict[int, int], lhs: "LaurentPoly",
              rhs: "LaurentPoly") -> int:
    """Add lhs * rhs into the code map sums, in place, and return the
    product's exponent bound, the sum of the operands' bounds.

    Raises OverflowError, before touching sums, if that bound passes
    :data:`LANE_MAX`.  The sums may be left with zeros;
    :meth:`LaurentPoly._from_sums` drops them.
    """
    bound = lhs._bound + rhs._bound
    if bound > LANE_MAX:
        raise OverflowError(
            f"a product exponent up to {bound} would pass the lane "
            f"limit {LANE_MAX}")
    get = sums.get
    one = _one_code(lhs.n)
    left = lhs._codes.items()
    for code2, c2 in rhs._codes.items():
        shift = code2 - one
        for code1, c1 in left:
            code = code1 + shift
            sums[code] = get(code, 0) + c1 * c2
    return bound


# -- text from lane pairs -----------------------------------------------------
#
# A term's text is rendered from its code read as 32-bit words, two lanes
# each (a leading pad lane, named None, evens an odd lane count), and from
# its coefficient.  Each word position and the coefficient have a form, a
# tuple (render function, *args); a shared ``texts`` dict maps each form
# to a _Texts cache, so a word's text at a position is rendered once per
# cache however many terms carry it.


class _Texts(dict):
    """key -> text, each text rendered by ``render(key)`` on first sight."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _lane_names(n: int) -> list[str | None]:
    """The names of the lanes of a term's words, in word order: the pad
    lane None first when n + 2 is odd, then q, x0, ..., xn."""
    return [None] * (n % 2) + ["q"] + [f"x{i}" for i in range(n + 1)]


def _json_coeff(coeff: int) -> str:
    return f',{{"coeff":"{coeff}'


def _json_pair(hi: str | None, lo: str, after: str, word: int) -> str:
    """The JSON of one word's lanes, each after its text ``hi``/``lo``;
    ``hi`` is None for the pad lane."""
    text = f"{lo}{(word & 0xFFFF) - 0x8000}{after}"
    if hi is None:
        return text
    return f"{hi}{(word >> 16) - 0x8000}{text}"


def _str_coeff(coeff: int) -> str:
    """The separator and |coeff| before a term's factors; a unit gives
    the separator alone."""
    sign = " - " if coeff < 0 else " + "
    return sign if coeff in (1, -1) else f"{sign}{abs(coeff)}*"


def _str_factor(name: str | None, lane: int) -> str:
    e = lane - 0x8000
    if not e or name is None:
        return ""
    return f"{name}*" if e == 1 else f"{name}^{e}*"


def _str_pair(hi: str | None, lo: str, word: int) -> str:
    """The factors, each with a trailing ``*``, of one word's lanes."""
    return _str_factor(hi, word >> 16) + _str_factor(lo, word & 0xFFFF)


def _json_forms(n: int) -> list[tuple]:
    """The JSON form of each word position: the text before each lane
    (`","q":` before q, `,"x":[` before x0, a comma before the others),
    and ``]}`` after the last word."""
    names = _lane_names(n)
    before = {None: None, "q": '","q":', "x0": ',"x":['}
    lanes = [before.get(name, ",") for name in names]
    last = len(names) // 2 - 1
    return [(_json_pair, lanes[2 * k], lanes[2 * k + 1],
             "]}" if k == last else "") for k in range(last + 1)]


def _str_forms(n: int) -> list[tuple]:
    """The text form of each word position: its two lanes' names."""
    names = _lane_names(n)
    return [(_str_pair, names[k], names[k + 1])
            for k in range(0, len(names), 2)]


class LaurentPoly:
    """An exact Laurent polynomial in q, x0..xn with integer coefficients.

    The terms are kept as a map from packed row code to nonzero int
    coefficient, with a bound on the largest |exponent|; see the module
    docstring.
    """

    __slots__ = ("n", "_codes", "_bound")

    def __init__(self, n: int, terms: Mapping[Row, int] | None = None):
        one = _one_code(n)
        codes: dict[int, int] = {}
        bound = 0
        if terms:
            for row, coeff in terms.items():
                if len(row) != n + 2:
                    raise ValueError("monomial dimension mismatch")
                if type(coeff) is not int:
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff:
                    code, b = _encode(row, one)
                    codes[code] = coeff
                    bound = max(bound, b)
        self.n = n
        self._codes = codes
        self._bound = bound

    @classmethod
    def _from_sums(cls, n: int, sums: Mapping[int, int],
                   bound: int) -> "LaurentPoly":
        """Wrap a code map built by this module's own arithmetic, its zero
        sums dropped, so that every code maps to a nonzero int."""
        res = cls.__new__(cls)
        res.n = n
        res._codes = {k: c for k, c in sums.items() if c}
        res._bound = bound
        return res

    def exponent_rows(self) -> dict[Row, int]:
        """The map from exponent row (q, x0, ..., xn) to nonzero
        coefficient, decoded from the codes in one pass on every call."""
        return dict(zip(_rows(self.n, self._codes), self._codes.values()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls._from_sums(n, {_one_code(n): 1}, 0)

    @classmethod
    def from_term(cls, row: Row, coeff: int = 1) -> "LaurentPoly":
        """The single term coeff * row; the row's length fixes n."""
        return cls(len(row) - 2, {row: coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._codes

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._codes)

    def __neg__(self):
        return LaurentPoly._from_sums(
            self.n, {k: -c for k, c in self._codes.items()}, self._bound)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self._codes == other._codes

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._codes.items()))))

    # -- rendering ---------------------------------------------------------

    def _parts(self, texts: dict, coeff_form: tuple,
               word_forms: list[tuple]) -> tuple[list[int], list[str]]:
        """(sorted codes, text parts): per term in canonical order, the
        coefficient's text and then its words' texts, each looked up in
        the cache of its form in texts (made there if missing)."""
        codes = sorted(self._codes)
        width = len(word_forms)
        # "I" is 32 bits wide on every platform CPython supports.
        words = array("I", b"".join(map(int.to_bytes, codes,
                                        repeat(4 * width), repeat("big"))))
        if _SWAP:
            words.byteswap()
        parts: list = [None] * (len(codes) * (width + 1))
        for k, form in enumerate((coeff_form, *word_forms)):
            cache = texts.get(form)
            if cache is None:
                cache = texts[form] = _Texts(partial(*form))
            keys = (map(self._codes.__getitem__, codes) if k == 0
                    else words[k - 1::width])
            parts[k::width + 1] = map(cache.__getitem__, keys)
        return codes, parts

    def _pretty(self, texts: dict) -> str:
        """The text ``-3*q^2*x0^2*x1*x3^-1 + x2``: terms in canonical
        order, a coefficient of 1 or -1 written only as its sign, 0 for
        the zero polynomial.  Polynomials rendered with one texts dict
        share its caches."""
        if not self._codes:
            return "0"
        forms = _str_forms(self.n)
        codes, parts = self._parts(texts, (_str_coeff,), forms)
        one = _one_code(self.n)
        k = bisect_left(codes, one)
        if k < len(codes) and codes[k] == one and self._codes[one] in (1, -1):
            parts[k * (len(forms) + 1)] += "1*"  # a constant +-1
        head = parts[0]
        parts[0] = head[3:] if head[1] == "+" else "-" + head[3:]
        # Every term ends in "*": the term that follows starts with " ".
        return "".join(parts).replace("* ", " ")[:-1]

    def __str__(self) -> str:
        return self._pretty({})

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def json_text(self, texts: dict | None = None) -> str:
        """The term list as compact JSON text, terms in canonical order,
        each ``{"coeff":"-3","q":2,"x":[...]}``: the bytes of
        ``json.dumps(self.to_json(), separators=(",", ":"))``.

        Rendered from the sorted codes as 32-bit words of two lanes each,
        with no Python call per term: each distinct coefficient and each
        distinct word at a position is rendered once per cache.
        Polynomials rendered with one texts dict share its caches;
        without one, a cache is made for this call.
        """
        if not self._codes:
            return "[]"
        _, parts = self._parts({} if texts is None else texts,
                               (_json_coeff,), _json_forms(self.n))
        parts[0] = "[" + parts[0][1:]
        parts[-1] += "]"
        return "".join(parts)

    def to_json(self) -> list[dict]:
        """Terms in canonical order, each `{"coeff": "-3", "q": 2, "x": [...]}`;
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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == LaurentPoly.one(self.n)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        size = len(self.coeffs) + len(other.coeffs) - 1
        sums: list[dict[int, int]] = [{} for _ in range(size)]
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

    def divide_exact(self, root: LaurentPoly) -> "TPoly":
        """The quotient by t - root, by synthetic division: from the top,
        q_(k-1) = a_k + root*q_k, and the remainder is a_0 + root*q_0.
        Raises NonZeroRemainderError, with the remainder and the quotient,
        if the remainder is not zero."""
        if self.n != root.n:
            raise ValueError("variable-count mismatch")
        q = LaurentPoly(self.n)
        out = []
        for a in reversed(self.coeffs):
            sums = dict(a._codes)
            bound = max(a._bound, _mul_into(sums, q, root))
            q = LaurentPoly._from_sums(self.n, sums, bound)
            out.append(q)
        remainder = out.pop() if out else q
        quotient = TPoly(self.n, reversed(out))
        if not remainder.is_zero():
            raise NonZeroRemainderError(TPoly(self.n, [remainder]), quotient)
        return quotient

    def evaluate(self, t_val, q_val, x_vals: Sequence) -> Fraction:
        """Exact value at t=t_val, q=q_val, x_i=x_vals[i]; every value is
        a rational, nonzero wherever a negative exponent touches it.

        The codes of all coefficients are decoded once, t's exponent (the
        degree of the coefficient a term sits in) is one more lane, and
        the sum runs over Python ints with one Fraction division at the
        end.  For a value a/b whose exponents lie in [lo, hi] with
        lo <= 0 <= hi, (a/b)^e = a^(e-lo) * b^(hi-e) / (a^-lo * b^hi),
        both exponents >= 0.  A zero value under a negative exponent makes
        the common denominator 0, which raises ZeroDivisionError.
        """
        n, width = self.n, self.n + 2
        if len(x_vals) != n + 1:
            raise ValueError(f"need {n + 1} values, got {len(x_vals)}")
        flat = _decode(n, [code for c in self.coeffs for code in c._codes])
        lanes = [[d for d, c in enumerate(self.coeffs) for _ in c._codes]]
        lanes += [flat[lane::width] for lane in range(width)]
        den, powers = 1, []
        for col, v in zip(lanes, map(Fraction, (t_val, q_val, *x_vals))):
            lo, hi = min((0, *col)), max((0, *col))
            a, b = v.numerator, v.denominator
            # Entry e is a^(e-lo) * b^(hi-e); a negative e counts from the end.
            table = [a ** (e - lo) * b ** (hi - e)
                     for e in (*range(hi + 1), *range(lo, 0))]
            powers.append(map(table.__getitem__, col))
            den *= a ** -lo * b ** hi
        coeffs = [k for c in self.coeffs for k in c._codes.values()]
        return Fraction(sum(k * prod(term)
                            for k, term in zip(coeffs, zip(*powers))), den)

    def __str__(self) -> str:
        """Terms by descending degree in t, each coefficient rendered
        through one texts dict for the whole polynomial."""
        if not self.coeffs:
            return "0"
        parts, texts = [], {}
        for deg in range(self.degree, -1, -1):
            c = self.coeffs[deg]
            if c.is_zero():
                continue
            tpart = "" if deg == 0 else ("t" if deg == 1 else f"t^{deg}")
            if not tpart:
                parts.append(f"({c._pretty(texts)})")
            elif c == LaurentPoly.one(self.n):
                parts.append(tpart)
            else:
                parts.append(f"({c._pretty(texts)})*{tpart}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self})"

    def to_json(self) -> list[list[dict]]:
        """Coefficients by ascending degree in t, each a LaurentPoly term list."""
        return [c.to_json() for c in self.coeffs]
