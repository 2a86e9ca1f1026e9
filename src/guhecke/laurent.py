"""Exact sparse Laurent-polynomial arithmetic over the rationals.

The ring has a formal prime variable ``q`` and torus variables
``x0, x1, ..., xn``, all invertible.  A :class:`LaurentPoly` stores a map
from :class:`Monomial` (an integer q-exponent plus an integer exponent
vector of length n+1) to a nonzero rational coefficient: an ``int`` when
it is integral, else a :class:`~fractions.Fraction`.  The two hash,
compare, sort and print alike, so the choice never shows in equality,
ordering or output; it only lets the integral polynomials of the Hecke
certificate run on Python int arithmetic.  Every ``/`` and every
negative power of a coefficient goes through ``Fraction``, so all
arithmetic is exact -- there is no floating point anywhere in this
package.  The zero polynomial is the empty map.

:class:`TPoly` is a polynomial in an extra indeterminate ``t`` whose
coefficients are LaurentPolys; it supports exact long division by a
divisor whose leading coefficient is a unit (a single invertible term),
raising :class:`NonZeroRemainderError` when the division does not come
out exact.

Monomials are totally ordered lexicographically on ``(q_exp, x_exps)``;
printing, JSON output and hashing all use that order, so renderings are
canonical and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add, getitem
from typing import Iterable, Mapping, NamedTuple, Sequence

Coeff = int | Fraction


class Monomial(NamedTuple):
    """A unit monomial q^a * x0^e0 * ... * xn^en (coefficient excluded)."""

    q_exp: int
    x_exps: tuple[int, ...]

    @property
    def nvars(self) -> int:
        """The n in x0..xn (exponent vector has length n+1)."""
        return len(self.x_exps) - 1

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        if len(self.x_exps) != len(other.x_exps):
            raise ValueError("monomial dimension mismatch")
        return Monomial(self.q_exp + other.q_exp,
                        tuple(a + b for a, b in zip(self.x_exps, other.x_exps)))

    def inverse(self) -> "Monomial":
        return Monomial(-self.q_exp, tuple(-e for e in self.x_exps))

    def power(self, k: int) -> "Monomial":
        return Monomial(k * self.q_exp, tuple(k * e for e in self.x_exps))

    @staticmethod
    def one(n: int) -> "Monomial":
        return Monomial(0, (0,) * (n + 1))

    @staticmethod
    def var(n: int, i: int, exp: int = 1) -> "Monomial":
        """The monomial x_i^exp, 0 <= i <= n."""
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exps = [0] * (n + 1)
        exps[i] = exp
        return Monomial(0, tuple(exps))

    @staticmethod
    def q(n: int, exp: int = 1) -> "Monomial":
        return Monomial(exp, (0,) * (n + 1))


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
    Fraction; the one place a coefficient's representation is chosen."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _mul_into(sums: dict, lhs: Mapping, rhs: Mapping) -> None:
    """Add the product of the term maps lhs and rhs into sums, in place.

    The sums may be left with zeros and integral Fractions;
    :meth:`LaurentPoly._from_sums` clears both.  A constant rhs (the
    leading 1 of a monic factor, a unit divisor's inverse) keeps the lhs
    monomials as they are instead of rebuilding each one.
    """
    get = sums.get
    right = list(rhs.items())
    if len(right) == 1:
        (q2, e2), c2 = right[0]
        if not q2 and not any(e2):
            for mono, c1 in lhs.items():
                sums[mono] = get(mono, 0) + c1 * c2
            return
    for (q1, e1), c1 in lhs.items():
        for (q2, e2), c2 in right:
            mono = Monomial(q1 + q2, tuple(map(add, e1, e2)))
            sums[mono] = get(mono, 0) + c1 * c2


def _term_str(mono: Monomial, coeff: Coeff) -> str:
    factors = []
    if mono.q_exp:
        factors.append("q" if mono.q_exp == 1 else f"q^{mono.q_exp}")
    for i, e in enumerate(mono.x_exps):
        if e:
            factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
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

    ``terms`` maps each monomial to its nonzero coefficient: an int when
    integral, else a Fraction.  ``/`` and negative powers of a coefficient
    go through Fraction, so no coefficient is ever a float.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Coeff] | None = None):
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono.x_exps) != n + 1:
                    raise ValueError("monomial dimension mismatch")
                c = _exact(coeff)
                if c:
                    clean[mono] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _from_sums(cls, n: int, sums: Mapping[Monomial, Coeff]) -> "LaurentPoly":
        """Wrap a term map built by this module's own arithmetic: drop the
        zero sums and normalise the rest, without re-checking monomials."""
        res = cls.__new__(cls)
        res.n = n
        res.terms = {m: _exact(c) for m, c in sums.items() if c}
        return res

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls(n, {Monomial.one(n): Fraction(1)})

    @classmethod
    def constant(cls, n: int, c) -> "LaurentPoly":
        return cls(n, {Monomial.one(n): Fraction(c)})

    @classmethod
    def var(cls, n: int, i: int, exp: int = 1) -> "LaurentPoly":
        return cls(n, {Monomial.var(n, i, exp): Fraction(1)})

    @classmethod
    def from_term(cls, mono: Monomial, coeff=1) -> "LaurentPoly":
        return cls(mono.nvars, {mono: Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff the polynomial is a single term (hence invertible)."""
        return len(self.terms) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise ValueError("only single-term Laurent polynomials are invertible")
        (mono, coeff), = self.terms.items()
        return LaurentPoly(self.n, {mono.inverse(): Fraction(1) / coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.n, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        sums = dict(self.terms)
        for mono, coeff in other.terms.items():
            sums[mono] = sums.get(mono, 0) + coeff
        return LaurentPoly._from_sums(self.n, sums)

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.n = self.n
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.n, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return LaurentPoly._from_sums(
                self.n, {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        sums: dict[Monomial, Coeff] = {}
        _mul_into(sums, self.terms, other.terms)
        return LaurentPoly._from_sums(self.n, sums)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.unit_inverse() ** (-k)
        result = LaurentPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, x_images: Sequence["LaurentPoly"],
                   q_image: "LaurentPoly | None" = None) -> "LaurentPoly":
        """Replace each x_i by x_images[i] (and q by q_image), exactly.

        Every image must be a single invertible term, so that negative
        exponents stay meaningful.
        """
        if len(x_images) != self.n + 1:
            raise ValueError(f"need {self.n + 1} images, got {len(x_images)}")
        if q_image is None:
            q_image = LaurentPoly.from_term(Monomial.q(self.n))
        images = [q_image, *x_images]
        pairs = []
        for img in images:
            if img.n != self.n:
                raise ValueError("image variable-count mismatch")
            if not img.is_unit():
                raise ValueError("substitution images must be invertible single terms")
            (mono, coeff), = img.terms.items()
            pairs.append((mono, coeff))
        out: dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms.items():
            acc_mono = Monomial.one(self.n)
            acc_coeff = coeff
            for exp, (im, ic) in zip((mono.q_exp, *mono.x_exps), pairs):
                if exp:
                    acc_mono = acc_mono * im.power(exp)
                    acc_coeff *= Fraction(ic) ** exp
            out[acc_mono] = out.get(acc_mono, 0) + acc_coeff
        return LaurentPoly(self.n, out)

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
        rows = [((m.q_exp, *m.x_exps), c) for m, c in self.terms.items()]
        scale = lcm(*(c.denominator for _, c in rows))
        den = scale
        tables = []
        values = [Fraction(v) for v in (q_val, *x_vals)]
        for v, col in zip(values, zip(*(exps for exps, _ in rows))):
            lo, hi = min(0, *col), max(0, *col)
            a, b = v.numerator, v.denominator
            # Entry e is a^(e-lo) * b^(hi-e); a negative e counts from the end.
            tables.append([a ** (e - lo) * b ** (hi - e)
                           for e in (*range(hi + 1), *range(lo, 0))])
            den *= a ** -lo * b ** hi
        total = sum(c.numerator * (scale // c.denominator)
                    * prod(map(getitem, tables, exps)) for exps, c in rows)
        return Fraction(total, den)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if not parts:
                parts.append(_term_str(mono, coeff))
            elif coeff < 0:
                parts.append(" - " + _term_str(mono, -coeff))
            else:
                parts.append(" + " + _term_str(mono, coeff))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> list[dict]:
        """Terms in canonical order, each `{"coeff": "3/2", "q": 2, "x": [...]}`."""
        return [{"coeff": str(c), "q": m.q_exp, "x": list(m.x_exps)}
                for m, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, n: int, data: Iterable[Mapping]) -> "LaurentPoly":
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            mono = Monomial(int(item["q"]), tuple(int(e) for e in item["x"]))
            terms[mono] = terms.get(mono, 0) + Fraction(item["coeff"])
        return cls(n, terms)


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
    def zero(cls, n: int) -> "TPoly":
        return cls(n)

    @classmethod
    def linear(cls, root: LaurentPoly) -> "TPoly":
        """The monic linear polynomial t - root."""
        return cls(root.n, [-root, LaurentPoly.one(root.n)])

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> LaurentPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == LaurentPoly.one(self.n)

    def __add__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        size = max(len(self.coeffs), len(other.coeffs))
        zero = LaurentPoly.zero(self.n)
        out = []
        for i in range(size):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        return TPoly(self.n, out)

    def __sub__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + TPoly(other.n, [-c for c in other.coeffs])

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        if self.is_zero() or other.is_zero():
            return TPoly.zero(self.n)
        sums: list[dict[Monomial, Coeff]] = [
            {} for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                _mul_into(sums[i + j], a.terms, b.terms)
        return TPoly(self.n, [LaurentPoly._from_sums(self.n, s) for s in sums])

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def divmod(self, divisor: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Long division by a divisor whose leading coefficient is a unit."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.n != divisor.n:
            raise ValueError("variable-count mismatch")
        if not divisor.leading.is_unit():
            raise ValueError("divisor leading coefficient must be a unit monomial")
        lead_inv = divisor.leading.unit_inverse()
        dd = divisor.degree
        if len(self.coeffs) <= dd:
            return TPoly.zero(self.n), self
        rem = [dict(c.terms) for c in self.coeffs]
        qcoeffs = [LaurentPoly.zero(self.n)] * (len(rem) - dd)
        for j in range(len(rem) - 1, dd - 1, -1):
            c = LaurentPoly._from_sums(self.n, rem[j])
            if c.is_zero():
                continue
            f = c * lead_inv
            qcoeffs[j - dd] = f
            # f times the leading coefficient cancels rem[j] exactly, and
            # rem[j] is never read again, so only the lower terms are
            # subtracted.
            neg_f = (-f).terms
            for i, dcoef in enumerate(divisor.coeffs[:-1]):
                _mul_into(rem[j - dd + i], neg_f, dcoef.terms)
        return TPoly(self.n, qcoeffs), TPoly(
            self.n, [LaurentPoly._from_sums(self.n, r) for r in rem[:dd]])

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
