import json
import random
from fractions import Fraction

import pytest

from guhecke.laurent import (LANE_MAX, LaurentPoly, NonZeroRemainderError,
                             TPoly, _mul_into)
from reference import (const, ref_add, ref_divmod, ref_mul, ref_str,
                       ref_tmul, ref_to_json, substitute, var, x_row)

N = 3


def x(i, exp=1):
    return var(N, i, exp)


def rand_terms(rng, n=N, terms=4, span=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(rng.randint(-span, span) for _ in range(n + 2))
        coeff = rng.randint(-9, 9)
        out = ref_add(out, {mono: coeff})
    return out


def rand_poly(rng, n=N, terms=4, span=3):
    return LaurentPoly(n, rand_terms(rng, n, terms, span))


def divide(dividend, root):
    """(quotient, remainder) of the division by t - root; an inexact
    division gives both in its NonZeroRemainderError."""
    try:
        return dividend.divide_exact(root), TPoly(dividend.n)
    except NonZeroRemainderError as err:
        return err.quotient, err.remainder


def ref_divide(dividend, root):
    """The reference long division of dividend by t - root, on term maps."""
    one = (0,) * (root.n + 2)
    return ref_divmod([p.exponent_rows() for p in dividend.coeffs],
                      [{m: -c for m, c in root.exponent_rows().items()},
                       {one: 1}])


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
        TPoly.linear(var(3, 1)).divide_exact(var(5, 1))
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
    # and a random remainder of a division by t - r.
    rng = random.Random(4)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        square = TPoly.linear(a) * TPoly(N, [a, LaurentPoly.one(N)])
        assert square.coeffs[1].is_zero()
        quotient, remainder = divide(TPoly(N, [b, a, b]), rand_poly(rng))
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


def value(poly, t_val, q_val, x_vals):
    """The value of one Laurent polynomial, as the constant t-polynomial."""
    return TPoly(poly.n, [poly]).evaluate(t_val, q_val, x_vals)


def test_evaluate_matches_hand_value():
    p = LaurentPoly(N, {(0, 0, 1, -1, 0): 2, (2, 0, 0, 0, 0): 3})
    point = [1, Fraction(3, 2), 2, 7]
    assert value(p, 4, 5, point) == 2 * Fraction(3, 2) / 2 + 75
    # a t-polynomial: (2*x1/x2 + 3*q^2) - x1^-2 * t^2 at t = -2/3
    tp = TPoly(N, [p, LaurentPoly(N), -x(1, -2)])
    assert tp.evaluate(Fraction(-2, 3), 5, point) == \
        Fraction(3, 2) + 75 - Fraction(4, 9) * Fraction(4, 9)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(31)
    point = [Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 3])) for _ in range(N + 1)]
    q_val, t_val = Fraction(5, 2), Fraction(-4, 3)
    for _ in range(20):
        a, b = rand_terms(rng), rand_terms(rng)
        value_a = value(LaurentPoly(N, a), t_val, q_val, point)
        value_b = value(LaurentPoly(N, b), t_val, q_val, point)
        assert value(LaurentPoly(N, ref_mul(a, b)), t_val, q_val, point) \
            == value_a * value_b
        assert value(LaurentPoly(N, ref_add(a, b)), t_val, q_val, point) \
            == value_a + value_b
        # and on t-polynomials, through their product
        ta, tb = ([rand_poly(rng) for _ in range(rng.randint(1, 3))]
                  for _ in range(2))
        assert times(ta, tb).evaluate(t_val, q_val, point) == \
            TPoly(N, ta).evaluate(t_val, q_val, point) \
            * TPoly(N, tb).evaluate(t_val, q_val, point)


def _evaluate_by_fractions(tpoly, t_val, q_val, x_vals):
    """The earlier evaluate, kept as the reference: every power and every
    partial sum is a Fraction, term by term and degree by degree."""
    values = [Fraction(v) for v in (q_val, *x_vals)]
    total = Fraction(0)
    for degree, poly in enumerate(tpoly.coeffs):
        for row, coeff in poly.exponent_rows().items():
            term = coeff * Fraction(t_val) ** degree
            for e, v in zip(row, values):
                if e:
                    term *= v ** e
            total += term
    return total


def test_integer_evaluate_matches_fraction_loop():
    rng = random.Random(77)
    values = [1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(9, 4)]
    # One term with a negative exponent in every lane, q first.
    below = LaurentPoly.from_term((-2, -1, -3, -1, -2), -5)
    polys = [TPoly(N), TPoly(N, [LaurentPoly.one(N)]),
             TPoly(N, [LaurentPoly.from_term((0, 0, 1, -3, 0), 3)]),
             TPoly(N, [below, LaurentPoly(N), LaurentPoly.one(N)])]
    polys += [TPoly(N, [rand_poly(rng, terms=8, span=4)
                        for _ in range(rng.randint(1, 4))])
              for _ in range(60)]
    for poly in polys:
        for t_val in (0, *(rng.choice(values) for _ in range(4))):
            q_val = rng.choice(values)
            point = [rng.choice(values) for _ in range(N + 1)]
            got = poly.evaluate(t_val, q_val, point)
            assert type(got) is Fraction
            assert got == _evaluate_by_fractions(poly, t_val, q_val, point)
    # t = 0 leaves the constant coefficient: 0^0 is 1.
    assert polys[3].evaluate(0, 2, [1, 1, 1, 1]) == Fraction(-5, 4)
    assert TPoly(N).evaluate(0, 0, [0] * (N + 1)) == 0


def test_evaluate_at_zero_under_a_negative_exponent_raises():
    poly = LaurentPoly(N, {(0, 0, 1, 0, 0): 1, (-1, 0, 0, 2, 0): 3})
    assert value(poly, 1, 2, [5, 0, 1, 1]) == Fraction(3, 2)  # 0 under x1^1
    assert value(poly, 1, 2, [5, 1, 0, 1]) == 1               # 0 under x2^2
    for p, q_val, point in ((poly, 0, [5, 1, 1, 1]),          # 0 under q^-1
                            (x(3, -2), 1, [1, 1, 1, 0])):     # 0 under x3^-2
        for tp in (TPoly(N, [p]), TPoly(N, [x(1), LaurentPoly(N), p])):
            with pytest.raises(ZeroDivisionError):
                _evaluate_by_fractions(tp, 0, q_val, point)
            with pytest.raises(ZeroDivisionError):
                tp.evaluate(0, q_val, point)
    with pytest.raises(ValueError):
        value(x(1), 0, 1, [1, 1, 1])
    with pytest.raises(ValueError):
        TPoly(N).evaluate(0, 1, [1] * (N + 2))


# -- rendering and JSON -------------------------------------------------------


def test_canonical_text_rendering():
    p = LaurentPoly(N, {(2, 2, 1, 0, -1): -3})
    assert str(p) == "-3*q^2*x0^2*x1*x3^-1"
    assert str(LaurentPoly(N)) == "0"
    assert str(LaurentPoly(N, {(0, 0, 1, 0, 0): 1,
                               (0, 0, 0, 1, 0): -1})) == "-x2 + x1"


def test_term_json_schema():
    p = LaurentPoly(N, {(2, 2, 1, 0, -1): -3})
    assert p.to_json() == [{"coeff": "-3", "q": 2, "x": [2, 1, 0, -1]}]


def _dumps(data):
    return json.dumps(data, separators=(",", ":"))


def test_json_text_matches_the_reference_builder_byte_for_byte():
    rng = random.Random(1010)
    edges = (-LANE_MAX, LANE_MAX)
    for n in range(3, 16):
        polys = [LaurentPoly(n), const(n, 5), const(n, -3 * 10 ** 30)]
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
                                             rng.choice([-4, 9 ** 40])}))
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
    # Text and JSON list the terms in row order, whatever the build order.
    rows = [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)]
    for order in (rows, rows[::-1]):
        p = LaurentPoly(N, dict.fromkeys(order, 1))
        assert str(p) == "x3 + x1 + q"
        assert [(t["q"], *t["x"]) for t in p.to_json()] == sorted(rows)


def _edge_polys(rng, n):
    """Polynomials in n that reach each case of the text: zero, the
    constants 1, -1 and 5, unit and larger coefficients of either sign,
    a negative first term, every lane at each end of its range, and a
    constant +-1 among other terms."""
    one = (0,) * (n + 2)
    polys = [LaurentPoly(n), const(n, 1), const(n, -1), const(n, 5),
             const(n, -3 * 10 ** 30)]
    for _ in range(4):
        polys.append(rand_poly(rng, n, terms=12, span=4))
    for slot in range(n + 2):
        for e in (-LANE_MAX, LANE_MAX, -1, 1):
            exps = [rng.randint(-2, 2) for _ in range(n + 2)]
            exps[slot] = e
            terms = {tuple(exps): rng.choice([1, -1, 9 ** 40, -7])}
            polys.append(LaurentPoly(n, terms))
            terms[one] = rng.choice([1, -1])
            polys.append(LaurentPoly(n, terms))
    first = min(rand_terms(rng, n, terms=5, span=2) or {one: 1})
    polys.append(LaurentPoly(n, {first: -1, (LANE_MAX,) * (n + 2): 1}))
    polys.append(LaurentPoly(n, {one: -1, (LANE_MAX,) * (n + 2): -2}))
    return polys


def test_pretty_text_matches_the_reference_byte_for_byte():
    # n = 1..16 covers both parities of the lane count n + 2, so both
    # with and without the pad lane.
    rng = random.Random(2828)
    for n in range(1, 17):
        for p in _edge_polys(rng, n):
            assert str(p) == ref_str(p), (n, p.exponent_rows())
        assert str(LaurentPoly(n)) == "0"
        assert str(const(n, 1)) == "1" and str(const(n, -1)) == "-1"
        assert str(const(n, 5)) == "5"
        assert str(LaurentPoly(n, {x_row(n, 0): -1, x_row(n, 1): 1})) == \
            "x1 - x0"
        assert str(LaurentPoly(n, {x_row(n, 0): 3, x_row(n, 1): -1})) == \
            "-x1 + 3*x0"


def test_texts_shared_across_polynomials_match_each_alone():
    # One texts dict for many polynomials, of every n at once, renders
    # each as a fresh dict would.
    rng = random.Random(2829)
    polys = [p for n in range(1, 17) for p in _edge_polys(rng, n)]
    rng.shuffle(polys)
    json_texts, str_texts = {}, {}
    for p in polys:
        assert p.json_text(json_texts) == p.json_text() == _dumps(ref_to_json(p))
        assert p._pretty(str_texts) == str(p) == ref_str(p)


def test_a_lane_pair_at_two_word_positions_gets_each_its_names():
    # The same 32-bit word, lanes (2, -1), sits at two positions of one
    # term: (x0, x1) and (x2, x3) at n = 3 (a pad lane before q), and
    # (x1, x2) and (x3, x4) at n = 4 (q and x0 share the first word).
    cases = {3: ((0, 2, -1, 2, -1), "x0^2*x1^-1*x2^2*x3^-1",
                 '[{"coeff":"1","q":0,"x":[2,-1,2,-1]}]'),
             4: ((2, -1, 2, -1, 2, -1), "q^2*x0^-1*x1^2*x2^-1*x3^2*x4^-1",
                 '[{"coeff":"1","q":2,"x":[-1,2,-1,2,-1]}]')}
    for n, (row, text, json_text) in cases.items():
        p = LaurentPoly.from_term(row)
        texts = {}
        assert p._pretty(texts) == text == ref_str(p)
        assert p.json_text(texts) == json_text == _dumps(ref_to_json(p))
        # the word rendered at its first position does not leak into the
        # second through the shared dict
        assert p._pretty(texts) == text and p.json_text(texts) == json_text


def test_tpoly_text_units_and_low_degrees():
    one, x1 = LaurentPoly.one(N), x(1)
    assert str(TPoly(N)) == "0"
    assert str(TPoly(N, [one])) == "(1)"
    assert str(TPoly(N, [-one])) == "(-1)"
    assert str(TPoly(N, [const(N, 5), one])) == "t + (5)"
    assert str(TPoly(N, [-one, -one])) == "(-1)*t + (-1)"
    assert str(TPoly(N, [x1, LaurentPoly(N), one])) == "t^2 + (x1)"
    p = LaurentPoly(N, {(1, 0, 1, 0, 0): -1, (0, 0, 0, 0, 0): 1})
    assert str(TPoly(N, [p, p, -p])) == (
        "(-1 + q*x1)*t^2 + (1 - q*x1)*t + (1 - q*x1)")


def test_exponent_rows_return_the_rows_built_from():
    # The rows come back as built, zero coefficients dropped, lanes at the
    # limits included.
    rng = random.Random(91)
    for n in (1, 3, 6):
        for _ in range(30):
            terms = {(rng.randint(-3, 3), *(
                rng.randint(-LANE_MAX, LANE_MAX) if rng.random() < 0.1
                else rng.randint(-4, 4) for _ in range(n + 1))):
                rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
            rows = LaurentPoly(n, terms).exponent_rows()
            assert rows == {row: c for row, c in terms.items() if c}
            assert all(type(c) is int for c in rows.values())
    assert LaurentPoly(3).exponent_rows() == {}


# -- TPoly --------------------------------------------------------------------


def test_tpoly_trims_and_reports_degree():
    zero = LaurentPoly(N)
    p = TPoly(N, [x(1), LaurentPoly.one(N), zero, zero])
    assert p.degree == 1
    assert p.coeffs == (x(1), LaurentPoly.one(N))
    assert TPoly(N).degree == -1


def test_products_with_a_zero_factor_are_zero():
    zero = TPoly(N)
    for other in (TPoly.linear(x(1)), TPoly(N, [const(N, -2)]),
                  TPoly(N, [x(2), LaurentPoly(N), x(1, -3)]), zero):
        for product in (zero * other, other * zero):
            assert product == TPoly(N)
            assert product.degree == -1


def test_divide_linear_factors():
    m1 = LaurentPoly.from_term((1, 0, 1, 0, 0))
    m2 = LaurentPoly.from_term((0, 0, 0, 2, 0), -3)
    product = TPoly.linear(m1) * TPoly.linear(m2)
    assert product.divide_exact(m1) == TPoly.linear(m2)
    assert product.divide_exact(m2) == TPoly.linear(m1)


def test_divide_exact_roundtrip_randomized():
    # Random quotients, zero middle coefficients among them, times t - r
    # for a random r with integer coefficients, the zero root included.
    rng = random.Random(5150)
    for _ in range(40):
        root = rand_poly(rng, terms=3)
        quotient = TPoly(N, [rand_poly(rng, terms=2) if rng.random() < 0.7
                             else LaurentPoly(N)
                             for _ in range(rng.randint(0, 3))]
                         + [rand_poly(rng, terms=3) or LaurentPoly.one(N)])
        assert (quotient * TPoly.linear(root)).divide_exact(root) == quotient


def test_nonzero_remainder_is_reported():
    # (t^2 + 1) / (t - x1): long division by hand gives quotient t + x1
    # and remainder 1 + x1^2.
    dividend = TPoly(N, [LaurentPoly.one(N), LaurentPoly(N), LaurentPoly.one(N)])
    with pytest.raises(NonZeroRemainderError) as info:
        dividend.divide_exact(x(1))
    assert info.value.remainder == TPoly(N, [LaurentPoly(N, {
        (0,) * 5: 1, (0, 0, 2, 0, 0): 1})])
    assert info.value.quotient == TPoly(N, [x(1), LaurentPoly.one(N)])


def test_zero_and_constant_dividends():
    # 0 / (t - r) is 0; a nonzero constant a0 is its own remainder, with
    # the zero quotient.
    rng = random.Random(17)
    for _ in range(10):
        root = rand_poly(rng)
        assert TPoly(N).divide_exact(root) == TPoly(N)
        a0 = rand_poly(rng) or const(N, -2)
        with pytest.raises(NonZeroRemainderError) as info:
            TPoly(N, [a0]).divide_exact(root)
        assert info.value.remainder == TPoly(N, [a0])
        assert info.value.quotient == TPoly(N)


def test_tpoly_evaluate():
    p = TPoly.linear(x(1)) * TPoly.linear(x(2))
    point = [1, Fraction(2), Fraction(3), 1]
    assert p.evaluate(Fraction(7), 11, point) == (7 - 2) * (7 - 3)


# -- coefficient representation: an int and nothing else ---------------------


def assert_exact_coeffs(poly):
    for coeff in poly.exponent_rows().values():
        assert type(coeff) is int, coeff


def test_operations_never_leave_floats_or_integral_fractions():
    rng = random.Random(1312)
    flip = identity_images(N)
    flip[1] = LaurentPoly.from_term(x_row(N, 2, -1), -1)
    flip[2] = LaurentPoly.from_term(x_row(N, 1, -1), -1)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        # large coefficients too, so products pass the machine word
        c = LaurentPoly(N, {m: 3 ** 50 * k for m, k in a.exponent_rows().items()})
        results = [c, -a, substitute(a, flip)]
        root = rand_poly(rng)
        dividend = TPoly(N, [a, b, c])
        quotient, remainder = divide(dividend, root)
        ref_q, ref_r = ref_divide(dividend, root)
        assert [p.exponent_rows() for p in quotient.coeffs] == ref_q
        assert [p.exponent_rows() for p in remainder.coeffs] == ref_r
        for tp in (quotient, remainder, quotient * TPoly.linear(root),
                   TPoly(N, [a, c]) * TPoly(N, [b, a])):
            results.extend(tp.coeffs)
        for poly in results:
            assert_exact_coeffs(poly)


def test_mul_into_a_started_sum_matches_term_by_term_product():
    # _mul_into adds lhs * rhs into a map that may already hold terms, for
    # constant, one-term and two-term right factors; the reference
    # rebuilds every product monomial.
    rng = random.Random(77)
    one = (0,) * (N + 2)
    q = (1,) + (0,) * (N + 1)
    rhs_cases = [{one: 1}, {one: -1}, {one: 3},
                 {q: 1}, {x_row(N, 2): 1},
                 {x_row(N, 0, -1): 5}, {one: 1, q: 2}]
    for _ in range(30):
        lhs = rand_poly(rng)
        before = lhs.exponent_rows()
        for start in (rand_poly(rng), LaurentPoly(N)):
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
            # Dividends with zero middle coefficients, divided by t - r.
            num = TPoly(n, [rand_poly(rng, n, terms=4) if rng.random() < 0.7
                            else LaurentPoly(n)
                            for _ in range(rng.randint(1, 5))])
            root = rand_poly(rng, n, terms=3)
            quotient, remainder = divide(num, root)
            ref_q, ref_r = ref_divide(num, root)
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
            terms[mono] = rng.randint(1, 9)
        p = LaurentPoly(n, terms)
        assert str(p) == ref_str(p)
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
                u = LaurentPoly.from_term(row, -7)
                assert u.exponent_rows() == {row: -7}
                assert (-u).exponent_rows() == {row: 7}
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
        TPoly(N, [x(1), u, LaurentPoly.one(N)]).divide_exact(u)
    # The refusal reads the summed bound, not the exact exponents: the
    # factor below has bound 32000 but is the constant 1.  It raises
    # before the sums are touched.
    one, = (TPoly(N, [x(1, 16000)]) * TPoly(N, [x(1, -16000)])).coeffs
    assert one == LaurentPoly.one(N)
    with pytest.raises(OverflowError):
        TPoly(N, [one]) * TPoly(N, [x(1, 16000)])
    sums = dict(x(2)._codes)
    with pytest.raises(OverflowError):
        _mul_into(sums, one, x(1, 16000))
    assert sums == x(2)._codes


def test_no_float_and_exponents_stay_in_lane_range():
    # no float is ever a coefficient or an exponent
    with pytest.raises(TypeError):
        LaurentPoly.from_term((0, 0, 1.0, 0, 0))
    p = LaurentPoly.from_term((-3, 1, -2, 0, 5), 3)
    q = TPoly(N, [p, x(1)]) * TPoly(
        N, [LaurentPoly.from_term((3, -1, 2, 0, -5), 12)])
    for tp in (q, q * q):
        for coeff in tp.coeffs:
            for row, c in coeff.exponent_rows().items():
                assert type(c) is int
                assert all(type(e) is int and abs(e) <= LANE_MAX for e in row)


def test_coefficients_other_than_int_are_refused():
    # A rational, a float, a bool or a string is not silently turned into
    # an int: not Fraction(6, 3), not True as 1, not "1".
    row = x_row(N, 1)
    for bad in (Fraction(1, 2), Fraction(6, 3), Fraction(0), 1.0, 0.1, 2.0,
                True, False, "1", "3/2"):
        with pytest.raises(TypeError, match="coefficient"):
            LaurentPoly(N, {row: bad})
        with pytest.raises(TypeError, match="coefficient"):
            LaurentPoly.from_term(row, bad)
    assert LaurentPoly.from_term(row, 2).exponent_rows() == {row: 2}
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
