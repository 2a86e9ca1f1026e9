import itertools
import random
from fractions import Fraction

import pytest

from guhecke.laurent import LANE_MAX, LaurentPoly, TPoly
from guhecke.rootdatum import (norm_monomial, pairing, rho, row_permuter,
                               twist_row, weyl_generators, weyl_group)
from reference import (dense_mat_mul, is_identity, ref_weyl_group,
                       sigma_images, sigma_twist_poly, substitute, weyl_act,
                       x_row)


def weyl_identity(n):
    return tuple(range(1, n + 1))


def compose(a, b):
    """The permutation i -> a(b(i)), checked to keep the pairing."""
    ab = tuple(a[j - 1] for j in b)
    assert keeps_the_pairing(ab), (a, b)
    return ab


def inverse(w):
    """The permutation j -> i with w(i) = j."""
    inv = [0] * len(w)
    for i, j in enumerate(w, start=1):
        inv[j - 1] = i
    return tuple(inv)


def keeps_the_pairing(w):
    """True iff w permutes 1..n and w(i) + w(n+1-i) = n+1 for every i."""
    n = len(w)
    return sorted(w) == list(range(1, n + 1)) and all(
        w[i - 1] + w[n - i] == n + 1 for i in range(1, n + 1))


def brute_force_group(n):
    """Oracle: filter all of S_n by the pairing condition."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[i - 1] + perm[n - i] == n + 1 for i in range(1, n + 1)):
            out.append(perm)
    return set(out)


@pytest.mark.parametrize("n,size", [(3, 2), (5, 8), (7, 48)])
def test_group_matches_brute_force(n, size):
    group = weyl_group(n)
    assert len(group) == size
    assert set(group) == brute_force_group(n)


def test_group_sizes_formula():
    for n in (3, 5, 7, 9):
        m = (n - 1) // 2
        expected = 2 ** m
        for k in range(1, m + 1):
            expected *= k
        assert len(weyl_group(n)) == expected


def test_n3_elements_explicit():
    assert set(weyl_group(3)) == {(1, 2, 3), (3, 2, 1)}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_group_closed_under_composition_and_inverse(n):
    group = weyl_group(n)
    members = set(group)
    for w in group:
        assert inverse(w) in members
        assert is_identity(compose(w, inverse(w)))
    rng = random.Random(n)
    for _ in range(50):
        a, b = rng.choice(group), rng.choice(group)
        assert compose(a, b) in members


def test_every_element_fixes_middle_index():
    for n in (3, 5, 7, 9):
        k = (n + 1) // 2
        assert all(w[k - 1] == k for w in weyl_group(n))


def test_generators_generate():
    # weyl_group is the closure of the generators; the direct enumeration
    # by signs and permutations is independent of them.
    for n in range(3, 12, 2):
        group = weyl_group(n)
        assert len(group) == len(set(group))
        assert set(group) == set(ref_weyl_group(n)), n


def test_generators_keep_the_pairing_to_n_15():
    # The hecke report certifies with the generators up to n = 15; their
    # closure is checked against the enumeration only to n = 11.
    for n in range(3, 16, 2):
        gens = weyl_generators(n)
        assert len(gens) == (n - 1) // 2
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert type(g) is tuple and not is_identity(g)
            assert keeps_the_pairing(g), (n, g)
    assert not keeps_the_pairing((2, 1, 3))
    assert not keeps_the_pairing((1, 1, 3))


def test_invalid_elements_rejected():
    with pytest.raises(ValueError):
        weyl_group(4)
    with pytest.raises(ValueError):
        weyl_group(1)


# -- rho and the pairing ------------------------------------------------------


def rho_oracle(n):
    """Half-sum of the roots chi_i - chi_j (1 <= i < j <= n), slot 0 empty."""
    total = [Fraction(0)] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total[i] += 1
            total[j] -= 1
    return tuple(v / 2 for v in total)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_rho_is_half_sum_of_positive_roots(n):
    assert rho(n) == rho_oracle(n)


def test_rho_frozen_values():
    assert rho(3) == (0, 1, 0, -1)
    assert rho(5) == (0, 2, 1, 0, -1, -2)


def test_rho_pairs_to_zero_with_middle_cocharacter():
    for n in (3, 5, 7):
        k = (n + 1) // 2
        mu_k = tuple(int(i == k) for i in range(n + 1))
        assert pairing(rho(n), mu_k) == 0


def test_pairing_values():
    for n in (3, 5, 7, 9):
        mu_1 = tuple(int(i == 1) for i in range(n + 1))
        assert pairing(rho(n), mu_1) == Fraction(n - 1, 2)
        central = (2,) + (1,) * n  # sum of mu_i plus 2 mu_0
        assert pairing(rho(n), central) == 0
        assert pairing((0,) * (n + 1), central) == 0
    with pytest.raises(ValueError):
        pairing((1, 2), (1, 2, 3))


def test_rho_is_integral_and_pairing_maps_ints_to_an_int():
    # rho has negative and zero entries; against (0, -1, ..., -n) it pairs
    # to sum_k k (2k - n - 1) / 2 = (n - 1) n (n + 1) / 12.
    for n in (3, 5, 7, 9):
        assert all(type(v) is int for v in rho(n))
        down = tuple(-k for k in range(n + 1))
        for nu, value in (((1,) * (n + 1), 0), ((0,) * (n + 1), 0),
                          (down, (n - 1) * n * (n + 1) // 12)):
            got = pairing(rho(n), nu)
            assert type(got) is int and got == value
        with pytest.raises(ValueError):
            pairing(rho(n), (1,) * n)


# -- the Galois twist ---------------------------------------------------------


def test_sigma_twist_frozen_images():
    n = 3
    assert twist_row(x_row(n, 0)) == (0, 1, 1, 1, 1)
    assert twist_row(x_row(n, 1)) == (0, 0, 0, 0, -1)
    assert twist_row((5, 0, 0, 0, 0)) == (5, 0, 0, 0, 0)


def rand_monomial(rng, n):
    """A random exponent row (q, x0, ..., xn)."""
    return (rng.randint(-2, 2), *(rng.randint(-3, 3) for _ in range(n + 1)))


def test_sigma_twist_is_an_involution():
    rng = random.Random(1212)
    for n in (3, 5, 7):
        for _ in range(30):
            m = rand_monomial(rng, n)
            assert twist_row(twist_row(m)) == m


def test_sigma_twist_poly_agrees_with_substitution():
    rng = random.Random(17)
    for n in (3, 5):
        images = sigma_images(n)
        for _ in range(15):
            m = rand_monomial(rng, n)
            p = LaurentPoly.from_term(m, rng.randint(1, 5))
            assert sigma_twist_poly(p) == substitute(p, images)
            assert sigma_twist_poly(p) == LaurentPoly.from_term(
                twist_row(m), p.exponent_rows()[m])


def test_sigma_twist_matches_matrix_action():
    """Oracle: evaluate the twisted monomial at g against the original
    monomial at the matrix-computed image of g."""
    rng = random.Random(321)
    for n in (3, 5):
        j_mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(1, n + 1):
            j_mat[i - 1][n - i] = Fraction((-1) ** (i - 1))
        for _ in range(10):
            xs = [Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
                  for _ in range(n)]
            x0 = Fraction(rng.choice([1, 2, 7]), rng.choice([1, 3]))
            inv_t = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                inv_t[i][i] = 1 / xs[i]
            twisted = dense_mat_mul(dense_mat_mul(j_mat, inv_t), j_mat)
            det_a = Fraction(1)
            for v in xs:
                det_a *= v
            assert all(twisted[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            image_point = [det_a * x0] + [twisted[i][i] for i in range(n)]
            point = [x0] + xs
            for _ in range(5):
                m = rand_monomial(rng, n)
                lhs = TPoly(n, [LaurentPoly.from_term(twist_row(m))]).evaluate(
                    3, 2, point)
                rhs = TPoly(n, [LaurentPoly.from_term(m)]).evaluate(
                    3, 2, image_point)
                assert lhs == rhs


def test_norm_monomial_values():
    n = 5
    assert norm_monomial(x_row(n, 0)) == (0, 2) + (1,) * n
    for i in range(1, n + 1):
        expected = [0] * (n + 2)
        expected[i + 1] += 1
        expected[n + 2 - i] -= 1
        assert norm_monomial(x_row(n, i)) == tuple(expected)
    assert norm_monomial((0,) * (n + 2)) == (0,) * (n + 2)
    # The q lane doubles, as in the product of q with its twist q.
    assert norm_monomial((3,) + (0,) * (n + 1)) == (6,) + (0,) * (n + 1)


# -- Weyl action --------------------------------------------------------------


def test_weyl_act_identity_and_swap():
    n = 3
    p = LaurentPoly.from_term((0, 0, 1, 0, -1))
    assert weyl_act(weyl_identity(n), p) == p
    w = (3, 2, 1)
    assert weyl_act(w, p) == LaurentPoly.from_term((0, 0, -1, 0, 1))


def test_weyl_act_fixes_symmetric_monomials():
    for n in (3, 5):
        full = LaurentPoly.from_term((0, 0) + (1,) * n)
        central = LaurentPoly.from_term((0, 2) + (1,) * n)
        for w in weyl_group(n):
            assert weyl_act(w, full) == full
            assert weyl_act(w, central) == central


def test_weyl_act_is_a_group_action():
    rng = random.Random(7)
    n = 5
    group = weyl_group(n)
    for _ in range(20):
        a, b = rng.choice(group), rng.choice(group)
        p = LaurentPoly.from_term(rand_monomial(rng, n))
        assert weyl_act(compose(a, b), p) == weyl_act(a, weyl_act(b, p))


def test_row_maps_agree_with_the_monomial_maps():
    # Random monomials with lanes at +-LANE_MAX among small ones: each
    # row map, on the decoded exponent row, gives the row of the
    # polynomial-level image, and the twist its substitution image
    # whenever that fits in the lanes.
    rng = random.Random(4242)
    lanes = (-LANE_MAX, LANE_MAX, -1, 0, 1, 2)
    substituted = 0
    for n in (3, 5, 7, 9):
        images = sigma_images(n)
        group = weyl_group(n) if n <= 7 else weyl_generators(n)
        for _ in range(25):
            m = tuple(rng.choice(lanes) for _ in range(n + 2))
            p = LaurentPoly.from_term(m, rng.randint(-5, 5) or 1)
            (row, coeff), = p.exponent_rows().items()
            assert row == m
            for w in group:
                assert {row_permuter(w)(row): coeff} == \
                    weyl_act(w, p).exponent_rows()
            twisted = twist_row(row)
            e0 = m[1]
            assert twisted == (m[0], e0, *[e0 - m[n + 2 - i]
                                           for i in range(1, n + 1)])
            if max(map(abs, twisted)) <= LANE_MAX:
                assert {twisted: coeff} == \
                    substitute(p, images).exponent_rows()
                substituted += 1
    assert substituted >= 20


@pytest.mark.parametrize("n", (-1, 0, 1, 2, 4, 10))
def test_every_odd_n_guard_gives_the_same_message(n):
    from guhecke.dieudonne import isocrystal_shape, strata_dims
    from guhecke.hecke import (certified_factorization, hecke_roots,
                               hecke_value_by_determinant)
    message = f"n must be odd and >= 3, got {n}"
    for call in (lambda: weyl_group(n),
                 lambda: hecke_roots(n), lambda: certified_factorization(n),
                 lambda: hecke_value_by_determinant(n, 1, [1] * n, 3, 0),
                 lambda: isocrystal_shape(n, 0), lambda: strata_dims(n)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
