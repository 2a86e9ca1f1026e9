import random
from fractions import Fraction

import pytest

from guhecke.hecke import (_mat_mul, central_monomial, check_sigma_invariance,
                           check_weyl_invariance, factor_hecke,
                           hecke_polynomial, hecke_report, hecke_roots,
                           hecke_value_by_determinant, r_weights, satake_alpha)
from guhecke.laurent import LaurentPoly, Monomial, TPoly
from guhecke.rootdatum import weyl_generators, weyl_group


def test_r_weights_n3_frozen():
    assert set(r_weights(3)) == {(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)}


def test_r_weights_highest_is_minuscule_pattern():
    for n in (3, 5, 7):
        weights = r_weights(n)
        assert weights[-1] == (1,) + (1,) * (n - 1) + (0,)
        assert len(weights) == n


def test_r_weights_stable_under_slot_permutation():
    rng = random.Random(2)
    for n in (3, 5):
        weights = set(r_weights(n))
        for _ in range(10):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            permuted = {(w[0],) + tuple(w[perm[i - 1]] for i in range(1, n + 1))
                        for w in weights}
            assert permuted == weights


def test_hecke_roots_n3_frozen():
    # (t - q^2 D x0^2 x3/x1), (t - q^2 D x0^2), (t - q^2 D x0^2 x1/x3)
    expected = [
        LaurentPoly.from_term(Monomial(2, (2, 0, 1, 2))),
        LaurentPoly.from_term(Monomial(2, (2, 1, 1, 1))),
        LaurentPoly.from_term(Monomial(2, (2, 2, 1, 0))),
    ]
    assert hecke_roots(3) == expected


def test_hecke_polynomial_equals_product_of_frozen_factors():
    product = TPoly(3, [LaurentPoly.one(3)])
    for root in hecke_roots(3):
        product = product * TPoly.linear(root)
    assert hecke_polynomial(3) == product


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hecke_polynomial_monic_of_degree_n(n):
    hp = hecke_polynomial(n)
    assert hp.degree == n
    assert hp.is_monic()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_constant_term_telescopes(n):
    # prod_i x_{n+1-i}/x_i = 1, so the constant term is
    # (-1)^n q^(n(n-1)) (x0^2 x1...xn)^n.
    hp = hecke_polynomial(n)
    expected = LaurentPoly.from_term(
        Monomial(n * (n - 1), (2 * n,) + (n,) * n), (-1) ** n)
    assert hp.coeffs[0] == expected


@pytest.mark.parametrize("n", [3, 5])
def test_subleading_coefficient_is_minus_root_sum(n):
    hp = hecke_polynomial(n)
    total = LaurentPoly.zero(n)
    for root in hecke_roots(n):
        total = total + root
    assert hp.coeffs[n - 1] == -total


def test_central_monomial_and_norm():
    from guhecke.rootdatum import norm_monomial, weyl_act
    for n in (3, 5, 7):
        e = central_monomial(n)
        assert e == Monomial(0, (2,) + (1,) * n)
        assert norm_monomial(Monomial.var(n, 0)) == e
        as_poly = LaurentPoly.from_term(e)
        assert all(weyl_act(w, as_poly) == as_poly for w in weyl_group(n))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_factorization_certificate(n):
    hp, quotient, root = factor_hecke(n)
    assert hp == hecke_polynomial(n)
    assert root == LaurentPoly.from_term(Monomial(n - 1, (2,) + (1,) * n))
    assert quotient.degree == n - 1
    assert quotient.is_monic()
    assert quotient * TPoly.linear(root) == hp


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_hecke_and_quotient_coefficients_are_ints(n):
    hp, quotient, _ = factor_hecke(n)
    for poly in (*hp.coeffs, *quotient.coeffs):
        assert poly.terms
        assert all(type(c) is int for c in poly.terms.values())


def test_factor_hecke_n3_frozen_quotient():
    _, quotient, _ = factor_hecke(3)
    a = LaurentPoly.from_term(Monomial(2, (2, 0, 1, 2)))
    b = LaurentPoly.from_term(Monomial(2, (2, 2, 1, 0)))
    assert quotient == TPoly.linear(a) * TPoly.linear(b)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hecke_coefficients_are_weyl_invariant(n):
    group = weyl_group(n)
    hp, quotient, _ = factor_hecke(n)
    for coeff in (*hp.coeffs, *quotient.coeffs):
        assert check_weyl_invariance(coeff, n, group)


def test_weyl_invariance_negative_and_trivial_cases():
    assert not check_weyl_invariance(LaurentPoly.var(3, 1), 3)
    assert check_weyl_invariance(LaurentPoly.constant(3, Fraction(5, 3)), 3)
    assert check_weyl_invariance(LaurentPoly.zero(3), 3)


def test_weyl_check_agrees_with_polynomial_action():
    from guhecke.rootdatum import weyl_act
    rng = random.Random(11)
    for n in (3, 5):
        group = weyl_group(n)
        for _ in range(10):
            p = LaurentPoly(n, {Monomial(rng.randint(-1, 1), tuple(
                rng.randint(-2, 2) for _ in range(n + 1))): rng.randint(1, 3)
                for _ in range(3)})
            orbit_sum = sum((weyl_act(w, p) for w in group), LaurentPoly.zero(n))
            for cand in (p, orbit_sum, orbit_sum + p):
                expected = all(weyl_act(w, cand) == cand for w in group)
                assert check_weyl_invariance(cand, n) == expected
            assert check_weyl_invariance(orbit_sum, n)
    with pytest.raises(ValueError):
        check_weyl_invariance(LaurentPoly.one(5), 5, weyl_group(3))


@pytest.mark.parametrize("n", [5, 7])
def test_weyl_check_rejects_polynomial_fixed_by_a_proper_subgroup(n):
    # x1 + ... + xm is fixed by the pair swaps but not by the reflection.
    m = (n - 1) // 2
    p = sum((LaurentPoly.var(n, i) for i in range(1, m + 1)),
            LaurentPoly.zero(n))
    gens = weyl_generators(n)
    assert check_weyl_invariance(p, n, gens[:-1])
    assert not check_weyl_invariance(p, n, gens)
    assert not check_weyl_invariance(p, n)


def test_generator_check_agrees_with_full_enumeration():
    n = 5
    gens = weyl_generators(n)
    for coeff in hecke_polynomial(n).coeffs:
        assert check_weyl_invariance(coeff, n, gens)
    assert not check_weyl_invariance(LaurentPoly.var(n, 2), n, gens)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hecke_coefficients_are_sigma_invariant(n):
    for coeff in hecke_polynomial(n).coeffs:
        assert check_sigma_invariance(coeff)


# -- Satake normalization -----------------------------------------------------


def test_satake_alpha_frozen_values():
    for n in (3, 5, 7):
        e = LaurentPoly.from_term(central_monomial(n))
        assert satake_alpha(e, n) == e
        x1 = LaurentPoly.var(n, 1)
        q_shift = LaurentPoly.from_term(Monomial.q(n, -(n - 1)))
        assert satake_alpha(x1, n) == q_shift * x1
        assert satake_alpha(LaurentPoly.one(n), n) == LaurentPoly.one(n)


def test_satake_alpha_is_ring_homomorphism():
    rng = random.Random(1234)
    n = 5

    def rand_poly():
        out = LaurentPoly.zero(n)
        for _ in range(rng.randint(1, 4)):
            mono = Monomial(rng.randint(-2, 2),
                            tuple(rng.randint(-2, 2) for _ in range(n + 1)))
            out = out + LaurentPoly(n, {mono: Fraction(rng.randint(-5, 5))})
        return out

    for _ in range(25):
        a, b = rand_poly(), rand_poly()
        assert satake_alpha(a * b, n) == satake_alpha(a, n) * satake_alpha(b, n)
        assert satake_alpha(a + b, n) == satake_alpha(a, n) + satake_alpha(b, n)


# -- the matrix-determinant route ----------------------------------------------


def test_product_form_matches_determinant_at_random_points():
    rng = random.Random(55)
    for n in (3, 5):
        hp = hecke_polynomial(n)
        for p in (3, 5):
            for _ in range(5):
                x0 = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
                xs = [Fraction(rng.choice([1, 2, 3, -2, 5]), rng.choice([1, 2, 3]))
                      for _ in range(n)]
                t = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
                assert hp.evaluate(t, p, [x0, *xs]) == \
                    hecke_value_by_determinant(n, x0, xs, p, t)


def _dense_mat_mul(a, b):
    """The earlier product: every a[i][k] * b[k][j], summed from Fraction(0)."""
    size = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0))
             for j in range(size)] for i in range(size)]


def test_sparse_mat_mul_matches_dense_products():
    rng = random.Random(88)

    def sample(size, density):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 if rng.random() < density else Fraction(0)
                 for _ in range(size)] for _ in range(size)]

    cases = []
    for size in (1, 3, 5):
        diag = [[Fraction(rng.randint(1, 7)) if i == j else Fraction(0)
                 for j in range(size)] for i in range(size)]
        anti = [[Fraction((-1) ** i) if i + j == size - 1 else Fraction(0)
                 for j in range(size)] for i in range(size)]
        cases += [(diag, anti), (anti, diag), (anti, anti),
                  (sample(size, 0.0), sample(size, 1.0))]
        cases += [(sample(size, d), sample(size, d))
                  for d in (0.2, 0.6, 1.0) for _ in range(10)]
    for a, b in cases:
        got = _mat_mul(a, b)
        assert got == _dense_mat_mul(a, b), (a, b)
        assert all(type(v) is Fraction for row in got for v in row)


def test_determinant_route_validates_arguments():
    with pytest.raises(ValueError):
        hecke_value_by_determinant(4, 1, [1, 1, 1, 1], 3, 0)
    with pytest.raises(ValueError):
        hecke_value_by_determinant(3, 1, [1, 1], 3, 0)


# -- report -------------------------------------------------------------------


def test_hecke_report_schema():
    report = hecke_report(3)
    assert report["n"] == 3
    assert report["weyl_invariant"] is True
    assert len(report["Hp"]) == 4 and len(report["R"]) == 3
    assert report["linear_root"] == {"coeff": "1", "q": 2, "x": [2, 1, 1, 1]}
    assert report["Hp"][-1] == [{"coeff": "1", "q": 0, "x": [0, 0, 0, 0]}]
