import json
import random
from fractions import Fraction

import pytest

from guhecke.laurent import (LANE_MAX, LaurentPoly, NonZeroRemainderError,
                             TPoly, _mul_into)
from reference import (const, ref_add, ref_divmod, ref_mul, ref_tmul,
                       ref_to_json, substitute, var, x_row)

N = 3


def x(i, exp=1):
    return var(N, i, exp)


def rand_terms(rng, n=N, terms=4, span=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(rng.randint(-span, span) for _ in range(n + 2))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = ref_add(out, {mono: coeff})
    return out


def rand_poly(rng, n=N, terms=4, span=3):
    return LaurentPoly(n, rand_terms(rng, n, terms, span))


def monic(rng, n=N, degree=1, terms=2):
    """A random monic t-polynomial of the given degree."""
    return TPoly(n, [rand_poly(rng, n, terms) for _ in range(degree)]
                 + [LaurentPoly.one(n)])


def times(*factors):
    """The product of t-polynomials given as coefficient lists."""
    out = TPoly(N, [LaurentPoly.one(N)])
    for coeffs in factors:
        out = out * TPoly(N, coeffs)
    return out


# -- sums and products inside the t-polynomial product -----------------------


def test_add_cancels_to_zero():
    # (t + x1)(t - x1) = t^2 - x1^2: the two products into t^1 cancel.
    square = times([x(1), LaurentPoly.one(N)], [-x(1), LaurentPoly.one(N)])
    assert square.coeffs[1].is_zero()


def test_add_merges_like_terms():
    square = times([x(1), LaurentPoly.one(N)], [x(1), LaurentPoly.one(N)])
    assert square.coeffs[1] == LaurentPoly(N, {(0, 0, 1, 0, 0): 2})


def test_add_keeps_distinct_terms():
    product = times([x(1), LaurentPoly.one(N)], [x(2), LaurentPoly.one(N)])
    assert product.coeffs[1] == LaurentPoly(N, {(0, 0, 1, 0, 0): 1,
                                                (0, 0, 0, 1, 0): 1})


def test_mul_unit_cancellation():
    assert times([x(1)], [x(1, -1)]) == TPoly(N, [LaurentPoly.one(N)])


def test_mul_monomials():
    lhs = times([LaurentPoly.from_term((2, 2, 0, 0, 0))],
                [LaurentPoly.from_term((0, 0, 1, 1, 1))])
    assert lhs == TPoly(N, [LaurentPoly.from_term((2, 2, 1, 1, 1))])


def test_square_of_binomial():
    binomial = LaurentPoly(N, {(0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 1})
    assert times([binomial], [binomial]) == TPoly(N, [LaurentPoly(N, 
        {(0, 0, 2, 0, 0): 1, (0, 0, 1, 1, 0): 2, (0, 0, 0, 2, 0): 1})])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        TPoly.linear(var(3, 1)) * TPoly.linear(var(5, 1))
    with pytest.raises(ValueError):
        TPoly.linear(var(3, 1)).divmod(TPoly.linear(var(5, 1)))
    with pytest.raises(ValueError):
        TPoly(3, [var(3, 1), var(5, 1)])
    # A row has n + 2 lanes, q first.
    with pytest.raises(ValueError, match="dimension"):
        LaurentPoly(3, {(0, 1, 0, 0): 1})
    with pytest.raises(ValueError, match="dimension"):
        LaurentPoly(3, {(0, 0, 1, 0, 0, 0): 1})


def test_ring_axioms_randomized():
    # The product of t-polynomials is commutative and associative.
    rng = random.Random(20240)
    for _ in range(60):
        a, b, c = ([rand_poly(rng) for _ in range(rng.randint(1, 3))]
                   for _ in range(3))
        assert times(a, b) == times(b, a)
        assert times(times(a, b).coeffs, c) == times(a, times(b, c).coeffs)


def test_no_zero_coefficients_survive():
    # Products and quotients whose sums cancel: (t - a)(t + a) = t^2 - a^2,
    # and a random remainder of a monic division.
    rng = random.Random(4)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        square = TPoly.linear(a) * TPoly(N, [a, LaurentPoly.one(N)])
        assert square.coeffs[1].is_zero()
        quotient, remainder = TPoly(N, [b, a, b]).divmod(monic(rng))
        for coeff in (*square.coeffs, *quotient.coeffs, *remainder.coeffs):
            assert all(c != 0 for c in coeff.exponent_rows().values())
            assert len(coeff) == len(coeff.exponent_rows())


# -- substitution -------------------------------------------------------------


def identity_images(n):
    return [var(n, i) for i in range(n + 1)]


def test_substitute_swap():
    images = identity_images(N)
    images[1], images[3] = x(3), x(1)
    assert substitute(LaurentPoly(N, {(0, 0, 1, 0, -1): 1}), images) == \
        LaurentPoly(N, {(0, 0, -1, 0, 1): 1})


def test_substitute_identity():
    rng = random.Random(99)
    for _ in range(10):
        p = rand_poly(rng)
        assert substitute(p, identity_images(N)) == p


def test_substitute_galois_images_on_x0():
    # x0 -> x0*x1*...*xn, x_i -> x_{n+1-i}^(-1)
    images = [LaurentPoly.from_term((0,) + (1,) * (N + 1))]
    images += [x(N + 1 - i, -1) for i in range(1, N + 1)]
    assert substitute(x(0), images) == LaurentPoly.from_term((0, 1, 1, 1, 1))


def test_substitute_rejects_non_unit_image():
    images = identity_images(N)
    images[2] = LaurentPoly(N, {(0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 1})
    with pytest.raises(ValueError):
        substitute(x(2), images)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_matches_hand_value():
    p = LaurentPoly(N, {(0, 0, 1, -1, 0): 2, (2, 0, 0, 0, 0): Fraction(1, 3)})
    val = p.evaluate(5, [1, Fraction(3, 2), 2, 7])
    assert val == 2 * Fraction(3, 2) / 2 + Fraction(25, 3)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(31)
    point = [Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 3])) for _ in range(N + 1)]
    q_val = Fraction(5, 2)
    for _ in range(20):
        a, b = rand_terms(rng), rand_terms(rng)
        value_a = LaurentPoly(N, a).evaluate(q_val, point)
        value_b = LaurentPoly(N, b).evaluate(q_val, point)
        assert LaurentPoly(N, ref_mul(a, b)).evaluate(q_val, point) == value_a * value_b
        assert LaurentPoly(N, ref_add(a, b)).evaluate(q_val, point) == value_a + value_b


def _evaluate_by_fractions(poly, q_val, x_vals):
    """The earlier evaluate, kept as the reference: every power and every
    partial sum is a Fraction."""
    values = [Fraction(v) for v in (q_val, *x_vals)]
    total = Fraction(0)
    for row, coeff in poly.exponent_rows().items():
        term = coeff
        for e, v in zip(row, values):
            if e:
                term *= v ** e
        total += term
    return total


def test_integer_evaluate_matches_fraction_loop():
    rng = random.Random(77)
    values = [1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(9, 4)]
    polys = [LaurentPoly.zero(N), LaurentPoly.one(N),
             LaurentPoly.from_term((0, 0, 1, -3, 0), 3)]
    polys += [rand_poly(rng, terms=8, span=4) for _ in range(60)]
    integral = [p for p in polys
                if all(type(c) is int for c in p.exponent_rows().values())]
    assert len(integral) > 2 and len(integral) < len(polys)
    for poly in polys:
        for _ in range(5):
            q_val = rng.choice(values)
            point = [rng.choice(values) for _ in range(N + 1)]
            got = poly.evaluate(q_val, point)
            assert type(got) is Fraction
            assert got == _evaluate_by_fractions(poly, q_val, point)
    assert LaurentPoly.zero(N).evaluate(0, [0] * (N + 1)) == 0


def test_evaluate_at_zero_under_a_negative_exponent_raises():
    poly = LaurentPoly(N, {(0, 0, 1, 0, 0): 1,
                           (-1, 0, 0, 2, 0): Fraction(1, 3)})
    assert poly.evaluate(2, [5, 0, 1, 1]) == Fraction(1, 6)   # 0 under x1^1
    assert poly.evaluate(2, [5, 1, 0, 1]) == 1                # 0 under x2^2
    for p, q_val, point in ((poly, 0, [5, 1, 1, 1]),          # 0 under q^-1
                            (x(3, -2), 1, [1, 1, 1, 0])):     # 0 under x3^-2
        with pytest.raises(ZeroDivisionError):
            _evaluate_by_fractions(p, q_val, point)
        with pytest.raises(ZeroDivisionError):
            p.evaluate(q_val, point)
    with pytest.raises(ValueError):
        x(1).evaluate(1, [1, 1, 1])


# -- rendering and JSON -------------------------------------------------------


def test_canonical_text_rendering():
    p = LaurentPoly(N, {(2, 2, 1, 0, -1): Fraction(3, 2)})
    assert str(p) == "3/2*q^2*x0^2*x1*x3^-1"
    assert str(LaurentPoly.zero(N)) == "0"
    assert str(LaurentPoly(N, {(0, 0, 1, 0, 0): 1,
                               (0, 0, 0, 1, 0): -1})) == "-x2 + x1"


def test_term_json_schema():
    p = LaurentPoly(N, {(2, 2, 1, 0, -1): Fraction(3, 2)})
    assert p.to_json() == [{"coeff": "3/2", "q": 2, "x": [2, 1, 0, -1]}]


def _dumps(data):
    return json.dumps(data, separators=(",", ":"))


def test_json_text_matches_the_reference_builder_byte_for_byte():
    rng = random.Random(1010)
    edges = (-LANE_MAX, LANE_MAX)
    for n in range(3, 16):
        polys = [LaurentPoly.zero(n), const(n, 5), const(n, Fraction(-3, 7))]
        for _ in range(6):
            big = rand_terms(rng, n, terms=10, span=3)
            polys.append(LaurentPoly(n, ref_add(
                rand_terms(rng, n, terms=30, span=40),
                {m: 11 * c for m, c in big.items()})))
        # Every lane, q first, at each end of its range.
        for slot in range(n + 2):
            for e in edges:
                exps = [rng.randint(-5, 5) for _ in range(n + 2)]
                exps[slot] = e
                polys.append(LaurentPoly(n, {tuple(exps):
                                             rng.choice([-4, Fraction(-9, 2)])}))
        polys.append(LaurentPoly(n, {(e,) * (n + 2): k
                                     for k, e in enumerate(edges, 1)}))
        for p in polys:
            expected = _dumps(ref_to_json(p))
            assert p.json_text() == expected
            assert p.to_json() == ref_to_json(p)
            assert len(p) == len(p.exponent_rows())
        assert polys[0].json_text() == "[]"
        assert polys[1].json_text() == '[{"coeff":"5","q":0,"x":[%s]}]' % (
            ",".join(["0"] * (n + 1)))


def test_sorted_terms_are_deterministic():
    p = LaurentPoly(N, {(0, 0, 0, 0, 1): 1, (0, 0, 1, 0, 0): 1,
                        (1, 0, 0, 0, 0): 1})
    keys = [m for m, _ in p.sorted_terms()]
    assert keys == sorted(keys)


def test_exponent_rows_return_the_rows_built_from():
    # The rows come back as built, zero coefficients dropped and integral
    # Fractions as ints, lanes at the limits included.
    rng = random.Random(91)
    for n in (1, 3, 6):
        for _ in range(30):
            terms = {(rng.randint(-3, 3), *(
                rng.randint(-LANE_MAX, LANE_MAX) if rng.random() < 0.1
                else rng.randint(-4, 4) for _ in range(n + 1))):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(0, 6))}
            rows = LaurentPoly(n, terms).exponent_rows()
            assert rows == {row: c for row, c in terms.items() if c}
            assert all(type(c) is int or c.denominator != 1
                       for c in rows.values())
    assert LaurentPoly.zero(3).exponent_rows() == {}


# -- TPoly --------------------------------------------------------------------


def test_tpoly_trims_and_reports_degree():
    zero = LaurentPoly.zero(N)
    p = TPoly(N, [x(1), LaurentPoly.one(N), zero, zero])
    assert p.degree == 1
    assert p.coeffs == (x(1), LaurentPoly.one(N))
    assert TPoly(N).degree == -1


def test_divide_linear_factors():
    m1 = LaurentPoly.from_term((1, 0, 1, 0, 0))
    m2 = LaurentPoly.from_term((0, 0, 0, 2, 0), Fraction(-3, 7))
    product = TPoly.linear(m1) * TPoly.linear(m2)
    assert product.divide_exact(TPoly.linear(m1)) == TPoly.linear(m2)


def test_divide_exact_roundtrip_randomized():
    rng = random.Random(5150)
    for _ in range(30):
        divisor = monic(rng, degree=rng.randint(1, 3))
        quotient = TPoly(N, [rand_poly(rng, terms=2) for _ in range(rng.randint(1, 3))]
                         + [LaurentPoly(N, ref_add(rand_terms(rng, terms=2),
                                                   {(0,) * (N + 2): 1}))])
        if quotient.is_zero():
            continue
        assert (quotient * divisor).divide_exact(divisor) == quotient


def test_nonzero_remainder_is_reported():
    # (t^2 + 1) / (t - x1): long division by hand gives quotient t + x1
    # and remainder 1 + x1^2.
    dividend = TPoly(N, [LaurentPoly.one(N), LaurentPoly.zero(N), LaurentPoly.one(N)])
    with pytest.raises(NonZeroRemainderError) as info:
        dividend.divide_exact(TPoly.linear(x(1)))
    assert info.value.remainder == TPoly(N, [LaurentPoly(N, {
        (0,) * 5: 1, (0, 0, 2, 0, 0): 1})])
    assert info.value.quotient == TPoly(N, [x(1), LaurentPoly.one(N)])


def test_divide_requires_a_monic_divisor():
    # A leading coefficient that is not 1, a unit or not, and the zero
    # polynomial are all refused.
    for lead in (LaurentPoly(N, {(0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 1}),
                 x(1), const(N, 2), const(N, -1)):
        with pytest.raises(ValueError, match="monic"):
            TPoly(N, [x(1), x(2)]).divide_exact(TPoly(N, [x(3), lead]))
    with pytest.raises(ValueError, match="monic"):
        TPoly(N, [x(1)]).divmod(TPoly(N))


def test_tpoly_evaluate():
    p = TPoly.linear(x(1)) * TPoly.linear(x(2))
    point = [1, Fraction(2), Fraction(3), 1]
    assert p.evaluate(Fraction(7), 11, point) == (7 - 2) * (7 - 3)


# -- coefficient representation: int when integral, else Fraction -------------


def assert_exact_coeffs(poly):
    for coeff in poly.exponent_rows().values():
        assert type(coeff) is int or (type(coeff) is Fraction
                                      and coeff.denominator != 1), coeff


def test_substitute_scaled_inverse_images_stays_exact():
    # x1 -> 3*x3^-1, x3 -> 3*x1^-1 on a polynomial with negative exponents
    # (3 ** -2 as a float would not be exact)
    images = identity_images(N)
    images[1] = LaurentPoly.from_term(x_row(N, 3, -1), 3)
    images[3] = LaurentPoly.from_term(x_row(N, 1, -1), 3)
    p = LaurentPoly(N, {(0, 0, -2, 0, 1): 5, (0, 0, 3, 0, 0): 1})
    got = substitute(p, images)
    expected = LaurentPoly(N, {(0, 0, -1, 0, 2): Fraction(5, 3),
                               (0, 0, 0, 0, -3): 27})
    assert got == expected
    assert_exact_coeffs(got)
    # the swap is an involution on the ring: applying it twice is the identity
    assert substitute(got, images) == p


def test_operations_never_leave_floats_or_integral_fractions():
    rng = random.Random(1312)
    flip = identity_images(N)
    flip[1] = LaurentPoly.from_term(x_row(N, 2, -1), Fraction(2, 3))
    flip[2] = LaurentPoly.from_term(x_row(N, 1, -1), 3)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        # integer polynomials too, so integral sums of Fractions show up
        c = LaurentPoly(N, {m: 3024 * k for m, k in a.exponent_rows().items()})
        results = [c, -a, substitute(a, flip)]
        divisor = monic(rng)
        dividend = TPoly(N, [a, b, c])
        quotient, remainder = dividend.divmod(divisor)
        ref_q, ref_r = ref_divmod([p.exponent_rows() for p in dividend.coeffs],
                                  [p.exponent_rows() for p in divisor.coeffs])
        assert [p.exponent_rows() for p in quotient.coeffs] == ref_q
        assert [p.exponent_rows() for p in remainder.coeffs] == ref_r
        for tp in (quotient, remainder, quotient * divisor,
                   TPoly(N, [a, c]) * TPoly(N, [b, a])):
            results.extend(tp.coeffs)
        for poly in results:
            assert_exact_coeffs(poly)


def test_constant_factor_fast_path_matches_term_by_term_product():
    # _mul_into adds the lhs codes as they are when the rhs is one constant
    # term (and copies them into an empty sum when it is 1); the reference
    # rebuilds every product monomial.
    rng = random.Random(77)
    one = (0,) * (N + 2)
    q = (1,) + (0,) * (N + 1)
    rhs_cases = [{one: 1}, {one: -1}, {one: Fraction(2, 3)},
                 {q: 1}, {x_row(N, 2): 1},
                 {x_row(N, 0, -1): 5}, {one: 1, q: 2}]
    for _ in range(30):
        lhs = rand_poly(rng)
        before = lhs.exponent_rows()
        for start in (rand_poly(rng), LaurentPoly.zero(N)):
            for rhs_terms in rhs_cases:
                rhs = LaurentPoly(N, rhs_terms)
                got = dict(start._codes)
                bound = _mul_into(got, lhs, rhs)
                # a later sum into the same map must not reach lhs
                _mul_into(got, lhs, rhs)
                product = ref_mul(before, rhs_terms)
                expected = ref_add(start.exponent_rows(), product)
                expected = ref_add(expected, product)
                result = LaurentPoly._from_sums(N, got, bound)
                assert result == LaurentPoly(N, expected)
                assert result.exponent_rows() == expected
                assert lhs.exponent_rows() == before
                assert LaurentPoly(N, before) == lhs
                exps = [abs(e) for row in product for e in row]
                assert bound >= max(exps, default=0)


# -- the packed monomial codes ------------------------------------------------


def test_packed_kernel_matches_term_by_term_reference():
    rng = random.Random(6060)
    for n in (3, 5):
        for _ in range(40):
            a, b = ([rand_poly(rng, n, terms=6)
                     for _ in range(rng.randint(1, 3))] for _ in range(2))
            product = TPoly(n, a) * TPoly(n, b)
            ref = ref_tmul([p.exponent_rows() for p in a],
                           [p.exponent_rows() for p in b])
            while ref and not ref[-1]:
                ref.pop()
            assert [p.exponent_rows() for p in product.coeffs] == ref
            num = [rand_poly(rng, n, terms=4) for _ in range(rng.randint(1, 5))]
            den = monic(rng, n, degree=rng.randint(0, 2))
            quotient, remainder = TPoly(n, num).divmod(den)
            ref_q, ref_r = ref_divmod([p.exponent_rows()
                                       for p in TPoly(n, num).coeffs],
                                      [p.exponent_rows() for p in den.coeffs])
            assert [p.exponent_rows() for p in quotient.coeffs] == ref_q
            assert [p.exponent_rows() for p in remainder.coeffs] == ref_r
            for poly in (*product.coeffs, *quotient.coeffs, *remainder.coeffs):
                assert_exact_coeffs(poly)


def test_code_order_is_the_monomial_order():
    rng = random.Random(404)
    values = (-LANE_MAX, -LANE_MAX + 1, -256, 255, 256, LANE_MAX, *range(-3, 4))
    for n in (3, 7):
        terms = {}
        for _ in range(300):
            mono = tuple(rng.choice(values) for _ in range(n + 2))
            terms[mono] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        p = LaurentPoly(n, terms)
        assert [m for m, _ in p.sorted_terms()] == sorted(terms)
        assert [(t["q"], *t["x"]) for t in p.to_json()] == sorted(terms)
        assert p.exponent_rows() == terms


def test_encode_decode_roundtrip_at_the_lane_limits():
    for e in (-LANE_MAX, -LANE_MAX + 1, -1, 0, 1, LANE_MAX - 1, LANE_MAX):
        for n in (3, 9):
            for slot in range(n + 2):
                exps = [0] * (n + 2)
                exps[slot] = e
                exps[(slot + 1) % (n + 2)] = -e
                row = tuple(exps)
                u = LaurentPoly.from_term(row, Fraction(-7, 2))
                assert u.exponent_rows() == {row: Fraction(-7, 2)}
                assert (-u).exponent_rows() == {row: Fraction(7, 2)}
    top = TPoly(N, [x(1, LANE_MAX // 2)]) * TPoly(N, [x(1, LANE_MAX // 2 + 1)])
    assert top.coeffs[0].exponent_rows() == {x_row(N, 1, LANE_MAX): 1}


def test_exponents_past_the_lane_limit_raise_instead_of_wrapping():
    for e in (LANE_MAX + 1, -LANE_MAX - 1, 2 ** 16, -(2 ** 40)):
        with pytest.raises(OverflowError):
            x(2, e)
        with pytest.raises(OverflowError):
            LaurentPoly.from_term((e,) + (0,) * (N + 1))
    u = x(1, 20000)
    with pytest.raises(OverflowError):
        TPoly(N, [u]) * TPoly(N, [u])
    with pytest.raises(OverflowError):
        TPoly(N, [LaurentPoly(N, {(0, 0, 0, 1, 0): 1,
                                  (0, 0, 20000, 0, 1): 1})]) \
            * TPoly(N, [LaurentPoly(N, {(0, 0, 1, 0, 0): 1,
                                        (0, 0, 20000, 0, 0): 1})])
    with pytest.raises(OverflowError):
        TPoly.linear(u) * TPoly.linear(u)
    with pytest.raises(OverflowError):
        TPoly(N, [x(1), u, LaurentPoly.one(N)]).divmod(TPoly.linear(u))
    # A bound that only sums the operands' bounds is retried on the exact
    # exponents: the factor below has bound 32000 but is the constant 1.
    one, = (TPoly(N, [x(1, 16000)]) * TPoly(N, [x(1, -16000)])).coeffs
    assert one == LaurentPoly.one(N)
    top = TPoly(N, [one]) * TPoly(N, [x(1, 16000)]) * TPoly(N, [x(1, 16767)])
    assert top == TPoly(N, [x(1, LANE_MAX)])


def test_no_float_and_exponents_stay_in_lane_range():
    # no float is ever a coefficient or an exponent
    with pytest.raises(TypeError):
        LaurentPoly.from_term((0, 0, 1.0, 0, 0))
    p = LaurentPoly.from_term((-3, 1, -2, 0, 5), 3)
    q = TPoly(N, [p, x(1)]) * TPoly(
        N, [LaurentPoly.from_term((3, -1, 2, 0, -5), Fraction(1, 12))])
    for tp in (q, q * q):
        for coeff in tp.coeffs:
            for row, c in coeff.exponent_rows().items():
                assert type(c) in (int, Fraction)
                assert all(type(e) is int and abs(e) <= LANE_MAX for e in row)


def test_coefficients_other_than_int_or_fraction_are_refused():
    # A float, a bool or a string is not silently turned into a Fraction:
    # 0.1 would be 3602879701896397/36028797018963968, True 1, "3/2" 3/2.
    row = x_row(N, 1)
    for bad in (0.1, True, False, "3/2", 2.0):
        with pytest.raises(TypeError, match="coefficient"):
            LaurentPoly(N, {row: bad})
        with pytest.raises(TypeError, match="coefficient"):
            LaurentPoly.from_term(row, bad)
    two = LaurentPoly.from_term(row, Fraction(6, 3))
    assert two.exponent_rows() == {row: 2}
    assert LaurentPoly.from_term(row, 0).is_zero()


def test_exponents_other_than_int_are_refused():
    # array("h") takes any int subclass, so a bool lane would be stored as
    # 0 or 1: (0, True, 0, False, 0) would read as x0.
    for bad in ((0, True, 0, False, 0), (0, 0, 0, 0, False),
                (0, 0, 1.0, 0, 0)):
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly(N, {bad: 1})
        with pytest.raises(TypeError, match="not an int"):
            LaurentPoly.from_term(bad, 2)
