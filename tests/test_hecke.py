import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import guhecke.hecke as hecke
from guhecke.cli import main
from guhecke.hecke import (PairingCertificateError, central_monomial,
                           certified_factorization, certify_root_pairs,
                           check_sigma_invariance, check_weyl_invariance,
                           hecke_polynomial, hecke_report, hecke_roots,
                           hecke_value_by_determinant, root_pairs)
from guhecke.laurent import LaurentPoly, TPoly
from guhecke.rootdatum import (row_permuter, twist_row, weyl_generators,
                               weyl_group)
from reference import (const, quadratic_factors_weyl_invariant, ref_add,
                       ref_divmod, ref_hecke_value_by_determinant, ref_tmul,
                       row_mul, sigma_twist_poly, var, weyl_act, x_row)


def var_sum(n, indices):
    """The polynomial sum of x_i over the indices."""
    return LaurentPoly(n, {x_row(n, i): 1 for i in indices})


def test_hecke_roots_n3_frozen():
    # (t - q^2 D x0^2 x3/x1), (t - q^2 D x0^2), (t - q^2 D x0^2 x1/x3)
    assert hecke_roots(3) == [(2, 2, 0, 1, 2), (2, 2, 1, 1, 1), (2, 2, 2, 1, 0)]


def test_hecke_polynomial_equals_product_of_frozen_factors():
    product = TPoly(3, [LaurentPoly.one(3)])
    for root in hecke_roots(3):
        product = product * TPoly.linear(LaurentPoly.from_term(root))
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
        (n * (n - 1), 2 * n) + (n,) * n, (-1) ** n)
    assert hp.coeffs[0] == expected


@pytest.mark.parametrize("n", [3, 5])
def test_subleading_coefficient_is_minus_root_sum(n):
    hp = hecke_polynomial(n)
    total = {}
    for root in hecke_roots(n):
        total = ref_add(total, {root: 1})
    assert hp.coeffs[n - 1] == -LaurentPoly(n, total)


def test_central_monomial_and_norm():
    from guhecke.rootdatum import norm_monomial
    for n in (3, 5, 7):
        e = central_monomial(n)
        assert e == (0, 2) + (1,) * n
        assert norm_monomial(x_row(n, 0)) == e
        as_poly = LaurentPoly.from_term(e)
        assert all(weyl_act(w, as_poly) == as_poly for w in weyl_group(n))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_factorization_certificate(n):
    hp, quotient, root, _ = certified_factorization(n)
    assert hp == hecke_polynomial(n)
    assert root == LaurentPoly.from_term((n - 1, 2) + (1,) * n)
    assert quotient.degree == n - 1
    assert quotient.is_monic()
    assert quotient * TPoly.linear(root) == hp


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_hecke_and_quotient_coefficients_are_ints(n):
    hp, quotient, _, _ = certified_factorization(n)
    for poly in (*hp.coeffs, *quotient.coeffs):
        assert poly.exponent_rows()
        assert all(type(c) is int for c in poly.exponent_rows().values())


def test_factor_hecke_n3_frozen_quotient():
    _, quotient, _, _ = certified_factorization(3)
    a = LaurentPoly.from_term((2, 2, 0, 1, 2))
    b = LaurentPoly.from_term((2, 2, 2, 1, 0))
    assert quotient == TPoly.linear(a) * TPoly.linear(b)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hecke_coefficients_are_weyl_invariant(n):
    group = weyl_group(n)
    hp, quotient, _, _ = certified_factorization(n)
    for coeff in (*hp.coeffs, *quotient.coeffs):
        assert check_weyl_invariance([coeff], n, group)


def test_weyl_invariance_negative_and_trivial_cases():
    group = weyl_group(3)
    assert not check_weyl_invariance([var(3, 1)], 3, group)
    assert check_weyl_invariance([const(3, -5)], 3, group)
    assert check_weyl_invariance([LaurentPoly(3)], 3, group)


def test_weyl_check_agrees_with_polynomial_action():
    rng = random.Random(11)
    for n in (3, 5):
        group = weyl_group(n)
        for _ in range(10):
            p = LaurentPoly(n, {(rng.randint(-1, 1), *(
                rng.randint(-2, 2) for _ in range(n + 1))): rng.randint(1, 3)
                for _ in range(3)})
            orbit = {}
            for w in group:
                orbit = ref_add(orbit, weyl_act(w, p).exponent_rows())
            orbit_sum = LaurentPoly(n, orbit)
            for cand in (p, orbit_sum,
                         LaurentPoly(n, ref_add(orbit, p.exponent_rows()))):
                expected = all(weyl_act(w, cand) == cand for w in group)
                assert check_weyl_invariance([cand], n, group) == expected
            assert check_weyl_invariance([orbit_sum], n, group)
    with pytest.raises(ValueError):
        check_weyl_invariance([LaurentPoly.one(5)], 5, weyl_group(3))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_weyl_check_of_several_polynomials_fails_if_any_one_moves(n):
    # One set of row maps serves the whole sequence: it is fixed iff each
    # polynomial is, wherever the moved one stands.
    group = weyl_group(n)
    hp, quotient, _, _ = certified_factorization(n)
    coeffs = [*hp.coeffs, *quotient.coeffs]
    assert check_weyl_invariance(coeffs, n, group)
    assert check_weyl_invariance([], n, group)
    moved = var(n, 1)
    assert not check_weyl_invariance([moved], n, group)
    for i in range(len(coeffs) + 1):
        polys = coeffs[:i] + [moved] + coeffs[i:]
        assert not check_weyl_invariance(polys, n, group), i
        assert not check_weyl_invariance(polys, n, weyl_generators(n)), i
    with pytest.raises(ValueError, match="size mismatch"):
        check_weyl_invariance([*coeffs, LaurentPoly.one(n + 2)], n, group)


@pytest.mark.parametrize("n", [5, 7])
def test_weyl_check_rejects_polynomial_fixed_by_a_proper_subgroup(n):
    # x1 + ... + xm is fixed by the pair swaps but not by the reflection.
    m = (n - 1) // 2
    p = var_sum(n, range(1, m + 1))
    gens = weyl_generators(n)
    assert check_weyl_invariance([p], n, gens[:-1])
    assert not check_weyl_invariance([p], n, gens)
    assert not check_weyl_invariance([p], n, weyl_group(n))


def _random_poly(n, rng):
    """One to three random terms with small exponents and coefficients."""
    return LaurentPoly(n, {(rng.randint(-1, 1), *(
        rng.randint(-1, 1) for _ in range(n + 1))): rng.randint(1, 3)
        for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("n", [3, 5, 7])
def test_term_walk_agrees_with_weyl_act(n):
    # The whole group in its order or shuffled, a list of the same length
    # with a repeat, the generators and all but the reflection: every
    # answer equals the per-term walk over the same elements and the
    # polynomial action of each element.
    rng = random.Random(290 + n)
    group = weyl_group(n)
    shuffled = tuple(rng.sample(group, len(group)))
    repeat = (*group[:-1], group[0])
    gens = weyl_generators(n)
    assert shuffled != group
    m = (n - 1) // 2
    polys = [var_sum(n, range(1, m + 1))]  # fixed by gens[:-1] only
    for _ in range(12):
        p = _random_poly(n, rng)
        orbit = {}
        for w in group:
            orbit = ref_add(orbit, weyl_act(w, p).exponent_rows())
        bumped = dict(orbit)
        bumped[rng.choice(sorted(orbit))] += 1
        dropped = dict(orbit)
        del dropped[rng.choice(sorted(orbit))]
        polys += [p, LaurentPoly(n, orbit), LaurentPoly(n, bumped),
                  LaurentPoly(n, dropped),
                  LaurentPoly(n, ref_add(orbit, p.exponent_rows()))]
    outcomes = set()
    for elements in (group, shuffled, repeat, gens, gens[:-1]):
        maps = [row_permuter(w) for w in elements]
        for p in polys:
            expected = all(weyl_act(w, p) == p for w in elements)
            assert hecke._fixed_by(p, maps) == expected
            assert check_weyl_invariance([p], n, elements) == expected
            outcomes.add((len(elements), expected))
    assert {fixed for _, fixed in outcomes} == {True, False}
    assert (len(group), True) in outcomes and (len(group), False) in outcomes


def test_generator_check_at_n15_builds_no_group(monkeypatch):
    # The hecke path's check of c on m generators is sized out at once: no
    # module builds the 645 120-element group, and m row maps are made.
    def refuse(n):
        raise AssertionError(f"weyl_group({n}) built")

    for name, module in list(sys.modules.items()):
        if name.startswith("guhecke") and hasattr(module, "weyl_group"):
            monkeypatch.setattr(module, "weyl_group", refuse)
    built = []
    real = hecke.row_permuter
    monkeypatch.setattr(hecke, "row_permuter",
                        lambda w: built.append(w) or real(w))
    center, _ = root_pairs(15)
    gens = weyl_generators(15)
    assert check_weyl_invariance([LaurentPoly.from_term(center)], 15, gens)
    assert built == list(gens) and len(gens) == 7


def test_weyl_check_reads_n():
    # A polynomial's n or an element's size other than n is refused, also
    # where the two agree with each other, and with no polynomial at all.
    for polys, n, group in (([LaurentPoly.one(5)], 5, weyl_group(3)),
                            ([LaurentPoly.one(3)], 5, weyl_group(3)),
                            ([LaurentPoly.one(3)], 5, weyl_group(5)),
                            ([], 5, weyl_group(3)),
                            ([LaurentPoly.one(5)], 5, weyl_generators(7))):
        with pytest.raises(ValueError, match="size mismatch"):
            check_weyl_invariance(polys, n, group)
    assert check_weyl_invariance([], 5, weyl_group(5))


def test_generator_check_agrees_with_full_enumeration():
    n = 5
    gens = weyl_generators(n)
    for coeff in hecke_polynomial(n).coeffs:
        assert check_weyl_invariance([coeff], n, gens)
    assert not check_weyl_invariance([var(n, 2)], n, gens)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_hecke_coefficients_are_sigma_invariant(n):
    hp, quotient, _, _ = certified_factorization(n)
    for coeff in (*hp.coeffs, *quotient.coeffs):
        assert check_sigma_invariance(coeff)


@pytest.mark.parametrize("n", [5, 7])
def test_sigma_check_rejects_a_weyl_invariant_sum(n):
    # The twist sends x1 + ... + xn to 1/x1 + ... + 1/xn.
    p = var_sum(n, range(1, n + 1))
    assert check_weyl_invariance([p], n, weyl_group(n))
    assert not check_sigma_invariance(p)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_sigma_check_rejects_a_coefficient_with_one_altered_term(n):
    # Every monomial of H and R is twist-fixed (so are c and each y_i).
    # Raising the x1 exponent of one term gives a monomial the twist moves
    # and whose image is not a term; a new coefficient on a fixed term
    # keeps the coefficient invariant.
    hp, quotient, _, _ = certified_factorization(n)
    checked = 0
    for coeff in (*hp.coeffs, *quotient.coeffs):
        terms = coeff.exponent_rows()
        assert all(twist_row(m) == m for m in terms)
        for mono, c in itertools.islice(terms.items(), 3):
            moved = {m: v for m, v in terms.items() if m != mono}
            moved[row_mul(mono, x_row(n, 1))] = c
            assert not check_sigma_invariance(LaurentPoly(n, moved)), mono
            assert check_sigma_invariance(
                LaurentPoly(n, {**terms, mono: c + 1}))
            checked += 1
    assert checked >= n


def test_sigma_lookup_agrees_with_the_twisted_polynomial():
    rng = random.Random(23)
    for n in (3, 5, 7):
        for _ in range(40):
            p = LaurentPoly(n, {(rng.randint(-1, 1), *(
                rng.randint(-2, 2) for _ in range(n + 1))): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 4))})
            twisted = sigma_twist_poly(p).exponent_rows()
            cands = [LaurentPoly(n, ref_add(p.exponent_rows(),
                                            {m: k * c for m, c in
                                             twisted.items()}))
                     for k in (1, -1, 2)]
            for cand in (p, *cands):
                assert check_sigma_invariance(cand) == \
                    (sigma_twist_poly(cand) == cand)
            assert check_sigma_invariance(cands[0])


def test_factorization_criterion_gates_the_twist(monkeypatch):
    import guhecke.acceptance as acceptance
    monkeypatch.setattr(acceptance, "check_sigma_invariance", lambda p: False)
    with pytest.raises(AssertionError, match="twist"):
        acceptance.factorization_certificate()


# -- the root-pair route --------------------------------------------------------


def _index_order_product(n):
    """The earlier expansion, kept as the reference: t - root multiplied
    in for root i = 1..n in turn."""
    poly = TPoly(n, [LaurentPoly.one(n)])
    for root in hecke_roots(n):
        poly = poly * TPoly.linear(LaurentPoly.from_term(root))
    return poly


def _quadratics(pairs):
    """(t - a)*(t - b) for each pair (a, b) of rows."""
    return [TPoly.linear(LaurentPoly.from_term(a))
            * TPoly.linear(LaurentPoly.from_term(b)) for a, b in pairs]


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_pair_route_equals_product_route(n):
    hp, quotient, root, invariant = certified_factorization(n)
    assert invariant
    assert hp == _index_order_product(n)
    center, pairs = root_pairs(n)
    assert LaurentPoly.from_term(center) == root
    certify_root_pairs(n, center, pairs)
    quadratics = _quadratics(pairs)
    c_sq = LaurentPoly.from_term(row_mul(center, center))
    for (a, b), quadratic in zip(pairs, quadratics):
        assert quadratic == TPoly(n, [c_sq, LaurentPoly(n, {a: -1, b: -1}),
                                      LaurentPoly.one(n)])
    product = quadratics[0]
    for quadratic in quadratics[1:]:
        product = product * quadratic
    assert product == quotient
    assert product * TPoly.linear(root) == hp
    for poly in (*hp.coeffs, *quotient.coeffs):
        assert all(type(c) is int for c in poly.exponent_rows().values())


def test_root_pairs_certify_for_every_odd_n_to_49():
    # Past n = 15 H is not expanded; the pairs are certified on their own
    # and the Weyl flag agrees with the quadratic reference.
    for n in range(3, 50, 2):
        center, pairs = root_pairs(n)
        assert len(pairs) == (n - 1) // 2
        assert certify_root_pairs(n, center, pairs) is True
        assert quadratic_factors_weyl_invariant(n, center, pairs)


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_packed_H_and_R_match_the_monomial_reference(n):
    # H as the product of t - root multiplied out term by term on
    # rows, and R as its reference long division by t - c.
    one = (0,) * (n + 2)
    ref_h = [{one: 1}]
    for root in hecke_roots(n):
        ref_h = ref_tmul(ref_h, [{root: -1}, {one: 1}])
    center = (n - 1, *central_monomial(n)[1:])
    ref_r, remainder = ref_divmod(ref_h, [{center: -1}, {one: 1}])
    assert remainder == []
    hp, quotient, _, _ = certified_factorization(n)
    assert [c.exponent_rows() for c in hp.coeffs] == ref_h
    assert [c.exponent_rows() for c in quotient.coeffs] == ref_r
    for poly in (*hp.coeffs, *quotient.coeffs):
        assert all(type(c) is int for c in poly._codes.values())


def test_certificate_rejects_a_wrong_pairing():
    center, pairs = root_pairs(5)
    (a1, b1), (a2, b2) = pairs
    # Same roots, so (a) holds; (c*y1)*(c*y2) is not c^2, so (b) fails.
    with pytest.raises(PairingCertificateError, match="c\\^2"):
        certify_root_pairs(5, center, [(a1, a2), (b1, b2)])


@pytest.mark.parametrize("n", [5, 7])
def test_certificate_rejects_a_missing_or_duplicated_pair(n):
    center, pairs = root_pairs(n)
    # One pair left out, one pair twice (in place of another or extra),
    # and a non-root as the center.
    for bad in (pairs[1:], pairs[:-1], [pairs[0], *pairs[:-1]],
                pairs + pairs[:1]):
        with pytest.raises(PairingCertificateError, match="not the roots"):
            certify_root_pairs(n, center, bad)
    with pytest.raises(PairingCertificateError, match="not the roots"):
        certify_root_pairs(n, row_mul(center, center), pairs)


def test_cli_maps_a_failed_pair_certificate_to_exit_2(capsys, monkeypatch):
    def wrong_pairs(n):
        center, pairs = root_pairs(n)
        (a1, b1), (a2, b2), *rest = pairs
        return center, [(a1, a2), (b1, b2), *rest]

    monkeypatch.setattr(hecke, "root_pairs", wrong_pairs)
    for fmt in ("json", "pretty"):
        assert main(["hecke", "--n", "5", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "certificate FAILED" in captured.err


def test_cli_maps_a_nonzero_remainder_to_exit_2(capsys, monkeypatch):
    # H with one term of its constant coefficient doubled (the one term
    # -c^n: plus one would cancel it): the real division by t - c leaves
    # a nonzero remainder.
    real = hecke.hecke_polynomial

    def bumped(n):
        hp = real(n)
        rows = hp.coeffs[0].exponent_rows()
        row = next(iter(rows))
        rows[row] *= 2
        return TPoly(n, [LaurentPoly(n, rows), *hp.coeffs[1:]])

    monkeypatch.setattr(hecke, "hecke_polynomial", bumped)
    for fmt in ("json", "pretty"):
        assert main(["hecke", "--n", "5", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "guhecke: factorization certificate FAILED: remainder ")


def test_char_det_is_the_diagonal_product_and_refuses_the_rest():
    a = [(0, 2, 3), (1, -5, 1), (2, 7, 2)]
    for t in (Fraction(0), Fraction(3, 4), Fraction(-2)):
        expected = Fraction(1)
        for _, u, v in a:
            expected *= t - Fraction(u, v)
        value = hecke._char_det(a, t.numerator, t.denominator)
        assert Fraction(*value) == expected
    # the signed antidiagonal J of size 3 is monomial but not diagonal
    j_signs = [(2, 1, 1), (1, -1, 1), (0, 1, 1)]
    with pytest.raises(ValueError, match="off the diagonal"):
        hecke._char_det(j_signs, 1, 1)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_factor_weyl_certificate_agrees_with_expanded_check(n):
    # Over every nonempty subset S of the pairs: the pair certificate's
    # flag predicate (one generator check on c and the sum of S's roots),
    # the quadratic reference, and the expanded generator check on the
    # product of S's quadratics and on it times (t - c) agree (true only
    # for the full set: the group moves every pair).  The certificate
    # itself refuses every proper subset: its roots are not those of H.
    center, pairs = root_pairs(n)
    c = LaurentPoly.from_term(center)
    linear = TPoly.linear(c)
    gens = weyl_generators(n)
    outcomes = set()
    for size in range(1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            quadratics = _quadratics(subset)
            product = quadratics[0]
            for quadratic in quadratics[1:]:
                product = product * quadratic
            full = product * linear
            expanded = check_weyl_invariance(
                (*full.coeffs, *product.coeffs), n, gens)
            roots = LaurentPoly(n, Counter(r for pair in subset for r in pair))
            assert check_weyl_invariance([c, roots], n, gens) == expanded
            assert quadratic_factors_weyl_invariant(n, center, subset) \
                == expanded
            if size < len(pairs):
                with pytest.raises(PairingCertificateError,
                                   match="not the roots"):
                    certify_root_pairs(n, center, subset)
            else:
                assert certify_root_pairs(n, center, subset) == expanded
            outcomes.add(expanded)
    assert outcomes == ({True} if n == 3 else {True, False})


@pytest.mark.parametrize("n", [5, 7, 9])
def test_factor_weyl_certificate_rejects_unpermuted_factors(n):
    center, pairs = root_pairs(n)
    assert certify_root_pairs(n, center, pairs) is True
    # The order within a pair is immaterial: a pair stands for its
    # quadratic.
    swapped = [(b, a) for a, b in pairs]
    assert certify_root_pairs(n, center, swapped) is True
    assert certify_root_pairs(n, center, [swapped[0], *pairs[1:]]) is True
    # (c*y1, c*y2) and (c/y1, c/y2) give quadratics with the same product
    # as the first two true ones, but some generator moves them off the
    # set (at n = 5 the reflection, which inverts y2 alone); neither pair
    # multiplies to c^2, so the certificate refuses them.
    (a1, b1), (a2, b2) = pairs[:2]
    crossed = [(a1, a2), (b1, b2), *pairs[2:]]
    with pytest.raises(PairingCertificateError, match="c\\^2"):
        certify_root_pairs(n, center, crossed)
    assert not quadratic_factors_weyl_invariant(n, center, crossed)
    # A center some generator moves: not a root of H.
    moved = row_mul(center, x_row(n, 1))
    with pytest.raises(PairingCertificateError, match="not the roots"):
        certify_root_pairs(n, moved, pairs)
    assert not quadratic_factors_weyl_invariant(n, moved, pairs)


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_factor_weyl_certificate_rejects_pairs_without_product_c_squared(n):
    # Every pair (c^3, 1): the generators fix c, c^3 and 1, so the flag's
    # generator check alone would pass, but (t - c^3)*(t - 1) has constant
    # term c^3, not c^2, and the pairs need not map to pairs.  The
    # certificate refuses them before the flag: they are not H's roots.
    center, pairs = root_pairs(n)
    one = (0,) * (n + 2)
    c_cubed = row_mul(center, row_mul(center, center))
    roots = LaurentPoly(n, {c_cubed: len(pairs), one: len(pairs)})
    assert check_weyl_invariance([LaurentPoly.from_term(center), roots], n,
                                 weyl_generators(n))
    with pytest.raises(PairingCertificateError, match="not the roots"):
        certify_root_pairs(n, center, [(c_cubed, one)] * len(pairs))


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_factor_weyl_certificate_is_false_under_a_generator_off_the_pairing(
        monkeypatch, n):
    # The transposition (1 2) added to hecke's generators for n >= 5 does
    # not keep the pairing i <-> n+1-i: it maps c*x_n/x_1 to c*x_n/x_2, not
    # a root of H, so the flag is false.  At n = 3 nothing is added.
    extra = ((2, 1, *range(3, n + 1)),) if n >= 5 else ()
    monkeypatch.setattr(hecke, "weyl_generators",
                        lambda k: weyl_generators(k) + extra)
    assert certified_factorization(n)[3] is (n == 3)


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
                value = hecke_value_by_determinant(n, x0, xs, p, t)
                assert type(value) is Fraction
                assert hp.evaluate(t, p, [x0, *xs]) == value


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_monomial_route_matches_the_dense_determinant(n):
    rng = random.Random(f"monomial:{n}")

    def coordinate(kind):
        if kind == "int":
            return rng.choice((1, 2, 3, 7, 12))
        if kind == "negative":
            return -rng.choice((1, 2, 5)) * rng.choice((1, Fraction(1, 3)))
        return Fraction(rng.choice((1, -1, 2, 5, -7)), rng.choice((2, 3, 4)))

    kinds = ("int", "negative", "fraction")
    for p in (2, 3, 5):
        for trial in range(6):
            x0 = coordinate(kinds[trial % 3])
            xs = [coordinate(rng.choice(kinds)) for _ in range(n)]
            for t in (0, rng.randint(-9, 9), coordinate(rng.choice(kinds))):
                got = hecke_value_by_determinant(n, x0, xs, p, t)
                assert type(got) is Fraction
                assert got == ref_hecke_value_by_determinant(n, x0, xs, p, t), \
                    (n, p, x0, xs, t)


def test_determinant_route_validates_arguments():
    with pytest.raises(ValueError):
        hecke_value_by_determinant(4, 1, [1, 1, 1, 1], 3, 0)
    with pytest.raises(ValueError):
        hecke_value_by_determinant(3, 1, [1, 1], 3, 0)
    with pytest.raises(ValueError):
        hecke_value_by_determinant(3, 0, [1, 2, 3], 3, 5)  # x0 = 0
    with pytest.raises(ValueError):
        hecke_value_by_determinant(5, 2, [1, 2, Fraction(0), 4, 5], 3, 5)


# -- report -------------------------------------------------------------------


def test_hecke_report_schema():
    report = hecke_report(3)
    assert report["n"] == 3
    assert report["weyl_invariant"] is True
    assert len(report["Hp"]) == 4 and len(report["R"]) == 3
    assert report["linear_root"] == {"coeff": "1", "q": 2, "x": [2, 1, 1, 1]}
    assert report["Hp"][-1].to_json() == [{"coeff": "1", "q": 0, "x": [0, 0, 0, 0]}]
    for coeff in (*report["Hp"], *report["R"]):
        assert len(coeff) == len(coeff.to_json()) == len(coeff.exponent_rows())
