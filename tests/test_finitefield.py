import random

import pytest

import guhecke.finitefield as finitefield
from guhecke.finitefield import (MR_EXACT_BOUND, TABLE_MAX_P, GFp2, _is_prime,
                                 annihilator_rows, gfp2, identity_mat,
                                 kernel_basis, mat_frob, mat_inv, mat_mul,
                                 rank, rref)
from reference import mat_vec, ref_inv_table, ref_neg_table

PRIMES = (3, 5, 7)


def in_row_span(fld, basis, v):
    """Reference: v lies in the span of the rref basis iff appending it
    leaves the rank unchanged."""
    if not any(v):
        return True
    stacked = rref(fld, basis + (v,))
    return len(stacked) == len(rref(fld, basis))


@pytest.mark.parametrize("p", PRIMES)
def test_nonresidue_is_not_a_square(p):
    fld = gfp2(p)
    squares = {(x * x) % p for x in range(p)}
    assert fld.nonresidue not in squares


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_exhaustive(p):
    fld = gfp2(p)
    elems = list(range(fld.size))
    for x in elems:
        assert fld.add(x, 0) == x
        assert fld.mul(x, 1) == x
        assert fld.add(x, fld.neg(x)) == 0
        if x:
            assert fld.mul(x, fld.inv(x)) == 1
    rng = random.Random(p)
    for _ in range(200):
        x, y, z = (rng.randrange(fld.size) for _ in range(3))
        assert fld.mul(x, y) == fld.mul(y, x)
        assert fld.mul(x, fld.add(y, z)) == fld.add(fld.mul(x, y), fld.mul(x, z))
        assert fld.mul(fld.mul(x, y), z) == fld.mul(x, fld.mul(y, z))


@pytest.mark.parametrize("p", PRIMES + (11,))
def test_negation_and_inversion_are_read_off_the_multiplication(p):
    fld = GFp2(p)
    assert fld._neg == ref_neg_table(fld)
    assert fld._inv == ref_inv_table(fld)


def _power(fld, x, k):
    """x^k for k >= 0 by square-and-multiply over fld.mul."""
    out = 1
    while k:
        if k & 1:
            out = fld.mul(out, x)
        x = fld.mul(x, x)
        k >>= 1
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_frobenius_is_pth_power_and_involution(p):
    fld = gfp2(p)
    for x in range(fld.size):
        assert fld.frob(x) == _power(fld, x, p)
        assert fld.frob(fld.frob(x)) == x


@pytest.mark.parametrize("p", PRIMES)
def test_frobenius_fixed_field_is_prime_field(p):
    fld = gfp2(p)
    fixed = [x for x in range(fld.size) if fld.frob(x) == x]
    assert fixed == [fld.embed(a) for a in range(p)]


def test_pair_roundtrip():
    fld = gfp2(5)
    for x in range(fld.size):
        assert fld.from_pair(fld.pair(x)) == x
    assert fld.pair(fld.from_pair((3, 4))) == (3, 4)


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_primality_matches_trial_division():
    assert [p for p in range(-5, 20000) if _is_prime(p)] == \
        [p for p in range(-5, 20000) if trial_division_is_prime(p)]


def test_primality_rejects_strong_pseudoprimes_and_accepts_large_primes():
    # Carmichael numbers and strong pseudoprimes to the bases 2, 3, 5, 7
    # (3215031751) and to every prime base up to 37 (318665857834031151167461)
    for composite in (561, 1105, 2047, 3215031751, 341550071728321,
                      318665857834031151167461, 10 ** 18 + 1):
        assert not _is_prime(composite), composite
    for prime in (2 ** 31 - 1, 10 ** 9 + 7, 10 ** 18 + 3, 2 ** 61 - 1,
                  2 ** 64 - 59):
        assert _is_prime(prime), prime


def test_primality_refuses_beyond_the_exact_bound():
    assert not _is_prime(MR_EXACT_BOUND - 1)  # even
    with pytest.raises(ValueError, match="primality"):
        _is_prime(MR_EXACT_BOUND)
    with pytest.raises(ValueError):
        GFp2(2 ** 89 - 1)


def test_nonresidue_is_the_smallest_non_square():
    for p in range(3, 400):
        if trial_division_is_prime(p):
            squares = {(x * x) % p for x in range(1, p)}
            expected = next(c for c in range(2, p) if c not in squares)
            assert GFp2(p).nonresidue == expected, p


def test_tables_are_refused_past_the_bound_and_built_up_to_it(monkeypatch):
    assert TABLE_MAX_P == 47
    big = GFp2(1009)
    assert big.from_pair((3, 1008)) == 3 + 1009 * 1008
    assert big.pair(3 + 1009 * 1008) == (3, 1008)
    assert big.embed(-1) == 1008
    for op in (lambda: big.add(0, 1), lambda: big.mul(1, 1),
               lambda: big.neg(1), lambda: big.frob(1), lambda: big.inv(1)):
        with pytest.raises(ValueError, match="p <= 47, got p=1009"):
            op()
    assert not {"_add", "_mul", "_neg", "_frob", "_inv"} & set(vars(big))
    monkeypatch.setattr(finitefield, "TABLE_MAX_P", 5)
    small = GFp2(5)
    assert small.mul(small.inv(7), 7) == 1
    with pytest.raises(ValueError, match="p <= 5, got p=7"):
        GFp2(7).mul(1, 1)


def test_rejects_bad_primes():
    with pytest.raises(ValueError):
        gfp2(4)
    with pytest.raises(ValueError):
        gfp2(2)


# -- linear algebra -----------------------------------------------------------


def rand_mat(fld, rng, nrows, ncols):
    return tuple(tuple(rng.randrange(fld.size) for _ in range(ncols))
                 for _ in range(nrows))


def test_rref_canonical_on_known_matrix():
    fld = gfp2(3)
    # codes are a + 3b for a + b*u; row2 = 2 * row1 in the prime field
    m = ((1, 2, 0), (2, 1, 0), (0, 0, 1))
    red = rref(fld, m)
    assert red == ((1, 2, 0), (0, 0, 1))
    assert rank(fld, m) == 2


def _full_row_rref(fld, rows):
    """The earlier rref, kept as the reference: scales and updates whole
    rows, subtracting f times the pivot row entry by entry."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    rank_ = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank_, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank_], work[pivot] = work[pivot], work[rank_]
        piv_inv = fld.inv(work[rank_][col])
        work[rank_] = [fld.mul(piv_inv, x) for x in work[rank_]]
        for r in range(len(work)):
            if r != rank_ and work[r][col]:
                f = work[r][col]
                work[r] = [fld.add(x, fld.neg(fld.mul(f, y)))
                           for x, y in zip(work[r], work[rank_])]
        rank_ += 1
        if rank_ == len(work):
            break
    return tuple(tuple(r) for r in work[:rank_] if any(r))


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_rref_matches_full_row_reference(p):
    fld = gfp2(p)
    rng = random.Random(600 + p)
    cases = [((0, 0, 0),), ((0, 0), (0, 0)), (), identity_mat(4)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)   # wide and tall
        m = [list(row) for row in rand_mat(fld, rng, nrows, ncols)]
        if nrows > 1 and rng.random() < 0.5:                  # rank-deficient
            c = rng.randrange(fld.size)
            m[-1] = [fld.add(x, fld.mul(c, y)) for x, y in zip(m[0], m[-2])]
            m[-2] = list(m[0])
        if rng.random() < 0.3:                                # a zero row
            m[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:                                # a zero column
            zero = rng.randrange(ncols)
            for row in m:
                row[zero] = 0
        cases.append(tuple(map(tuple, m)))
    deficient = set()
    for m in cases:
        red = rref(fld, m)
        assert red == _full_row_rref(fld, m), m
        assert all(any(row) for row in red)
        if m:
            deficient.add(len(red) < min(len(m), len(m[0])))
    assert deficient == {True, False}


def test_annihilator_of_the_empty_basis_is_the_identity():
    assert annihilator_rows(gfp2(5), (), 3) == identity_mat(3)


def test_rref_is_idempotent_and_span_invariant():
    fld = gfp2(5)
    rng = random.Random(50)
    for _ in range(30):
        m = rand_mat(fld, rng, rng.randint(1, 4), 4)
        red = rref(fld, m)
        assert rref(fld, red) == red
        # appending a random combination of rows keeps the canonical form
        if red:
            combo = [0] * 4
            for row in m:
                c = rng.randrange(fld.size)
                combo = [fld.add(x, fld.mul(c, y)) for x, y in zip(combo, row)]
            assert rref(fld, m + (tuple(combo),)) == red


def test_kernel_vectors_are_killed():
    fld = gfp2(7)
    rng = random.Random(70)
    for _ in range(30):
        m = rand_mat(fld, rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = kernel_basis(fld, m, len(m[0]))
        for v in ker:
            assert not any(mat_vec(fld, m, v))
        assert len(ker) + rank(fld, m) == len(m[0])


def test_mat_inv_roundtrip():
    for p in PRIMES:
        fld = gfp2(p)
        rng = random.Random(19 + p)
        for size in range(1, 10):
            found = 0
            while found < 3:
                m = rand_mat(fld, rng, size, size)
                if rank(fld, m) < size:
                    continue
                found += 1
                inverse = mat_inv(fld, m)
                assert mat_mul(fld, m, inverse) == identity_mat(size), m
                assert mat_mul(fld, inverse, m) == identity_mat(size), m


def _dense_mat_mul(fld, a, b):
    """The definition: entry (i, j) is the sum over k of a[i][k] * b[k][j]."""
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = 0
            for k, x in enumerate(row):
                acc = fld.add(acc, fld.mul(x, b[k][j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_mat_mul_matches_dense_definition(p):
    fld = gfp2(p)
    rng = random.Random(41 + p)

    def sample(rows, cols, density):
        return tuple(tuple(rng.randrange(1, fld.size)
                           if rng.random() < density else 0
                           for _ in range(cols)) for _ in range(rows))

    cases = [(sample(3, 3, 0.0), sample(3, 3, 1.0)),   # zero left factor
             (sample(3, 3, 1.0), sample(3, 3, 0.0)),   # zero right factor
             (sample(1, 4, 1.0), sample(4, 1, 1.0)),   # row times column
             (sample(4, 1, 1.0), sample(1, 4, 1.0))]   # column times row
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        for density in (0.15, 0.5, 1.0):
            a = [list(row) for row in sample(rows, inner, density)]
            a[rng.randrange(rows)] = [0] * inner         # a zero row
            cases.append((tuple(map(tuple, a)), sample(inner, cols, density)))
    for a, b in cases:
        assert mat_mul(fld, a, b) == _dense_mat_mul(fld, a, b), (a, b)


def test_mat_inv_rejects_singular():
    fld = gfp2(3)
    with pytest.raises(ZeroDivisionError):
        mat_inv(fld, ((1, 2), (2, 1)))  # second row is twice the first
    for p in PRIMES:
        fld = gfp2(p)
        rng = random.Random(27 + p)
        for size in range(2, 8):
            # One row is a random combination of the others.
            rows = [list(row) for row in rand_mat(fld, rng, size - 1, size)]
            combo = [0] * size
            for row in rows:
                c = rng.randrange(fld.size)
                combo = [fld.add(x, fld.mul(c, y)) for x, y in zip(combo, row)]
            rows.insert(rng.randrange(size), combo)
            m = tuple(map(tuple, rows))
            assert rank(fld, m) < size
            with pytest.raises(ZeroDivisionError):
                mat_inv(fld, m)


def test_annihilator_cuts_out_the_span():
    fld = gfp2(3)
    rng = random.Random(33)
    for _ in range(20):
        basis = rref(fld, rand_mat(fld, rng, 2, 4))
        ann = annihilator_rows(fld, basis, 4)
        for v in basis:
            assert not any(mat_vec(fld, ann, v)) if ann else True
        # vectors outside the span are not killed
        for _ in range(10):
            v = tuple(rng.randrange(fld.size) for _ in range(4))
            killed = not any(mat_vec(fld, ann, v)) if ann else True
            assert killed == in_row_span(fld, basis, v)


def test_mat_frob_entrywise_and_keeps_rref():
    fld = gfp2(3)
    m = ((0, 1, 5, 7), (2, 0, 8, 3))
    assert mat_frob(fld, m) == tuple(tuple(fld.frob(x) for x in row)
                                     for row in m)
    # Frobenius fixes 0 and 1, so a reduced basis stays reduced.
    rng = random.Random(34)
    for _ in range(30):
        red = rref(fld, rand_mat(fld, rng, rng.randint(1, 4), 5))
        assert rref(fld, mat_frob(fld, red)) == mat_frob(fld, red)


@pytest.mark.parametrize("p", PRIMES)
def test_mat_neg_is_entrywise_negation(p):
    fld, rng = gfp2(p), random.Random(p)
    neg = ref_neg_table(fld)
    for nrows, ncols in ((1, 1), (2, 5), (4, 3), (0, 0)):
        m = rand_mat(fld, rng, nrows, ncols)
        assert finitefield.mat_neg(fld, m) == tuple(
            tuple(neg[x] for x in row) for row in m)


@pytest.mark.parametrize("p", PRIMES)
def test_mat_vec_matches_the_reference(p):
    fld, rng = gfp2(p), random.Random(p)
    for nrows, ncols in ((1, 1), (3, 4), (5, 2), (4, 4)):
        m = rand_mat(fld, rng, nrows, ncols)
        v = tuple(rng.randrange(fld.size) for _ in range(ncols))
        assert tuple(finitefield.mat_vec(fld, m, v)) == mat_vec(fld, m, v)
    assert tuple(finitefield.mat_vec(fld, (), (1, 2))) == ()


def test_mat_vec_yields_each_row_before_reading_the_next():
    # any() over it stops at the first nonzero entry: the row after it,
    # which holds no field code, is never read.
    fld = gfp2(3)
    rows = iter(((0, 0), (1, 0), (fld.size, fld.size)))
    assert any(finitefield.mat_vec(fld, rows, (1, 1)))
    assert next(rows) == (fld.size, fld.size)


def _kernel_cases(fld, rng):
    """(matrix, ncols): random of every shape, rank-deficient, zero,
    full row rank, full column rank and empty."""
    cases = [((), 0), ((), 3), (((0, 0, 0),), 3), (((0, 0), (0, 0)), 2),
             (identity_mat(4), 4), (identity_mat(1), 1)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [list(row) for row in rand_mat(fld, rng, nrows, ncols)]
        if nrows > 1 and rng.random() < 0.5:
            c = rng.randrange(fld.size)
            m[-1] = [fld.add(x, fld.mul(c, y)) for x, y in zip(m[0], m[-2])]
        if rng.random() < 0.3:
            zero = rng.randrange(ncols)
            for row in m:
                row[zero] = 0
        cases.append((tuple(map(tuple, m)), ncols))
    for size in (1, 3, 5):
        while True:
            m = rand_mat(fld, rng, size, size)
            if rank(fld, m) == size:
                cases.append((m, size))
                break
    return cases


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis_is_reduced_and_spans_the_kernel(p):
    fld = gfp2(p)
    rng = random.Random(80 + p)
    shapes = set()
    for m, ncols in _kernel_cases(fld, rng):
        ker = kernel_basis(fld, m, ncols)
        assert ker == rref(fld, ker), m
        assert all(len(v) == ncols for v in ker)
        for v in ker:
            assert not any(mat_vec(fld, m, v)), (m, v)
        # independent rows (rref keeps them all), as many as the nullity
        assert len(ker) == ncols - rank(fld, m), m
        # the same span as the unreduced annihilator of rref(m)
        ann = annihilator_rows(fld, rref(fld, m), ncols)
        assert ker == rref(fld, ann), m
        shapes.add((len(ker) == 0, len(ker) == ncols))
    assert shapes == {(True, False), (False, True), (False, False),
                      (True, True)}
