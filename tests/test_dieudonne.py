import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import guhecke.dieudonne as dieudonne
from guhecke.dieudonne import (ClassificationError, ClosureLimitError,
                               DieudonneModuleZ, DieudonneSpace, NoMatchError,
                               NotBT1Error, SlopeMultiset,
                               _model_fingerprints, _random_invertible,
                               basechange, char_poly,
                               check_bt1, classify_type, direct_sum,
                               fingerprint, isocrystal_shape, make_B, make_SS,
                               model_space, newton_slopes, paired_block_slopes,
                               pairing_law_holds, random_basechange,
                               random_frames, signature, strata_dims, v_ranks)
from guhecke.finitefield import (gfp2, identity_mat, kernel_basis, mat_inv,
                                  mat_mul, mat_transpose, rref)
from guhecke.rational import gauss_jordan, mat_mul as mat_mul_q
from reference import (apply_f, apply_v, dense_mat_mul, mat_vec,
                       padic_newton_slopes, ref_random_basechange,
                       ref_random_invertible, vec_frob)

PRIMES = (3, 5, 7)


# -- integral models ----------------------------------------------------------


def test_ss_frozen_matrices():
    p = 5
    ss = make_SS(p)
    assert ss.f_mat == ((0, -p), (1, 0))
    assert ss.v_mat == ((0, p), (-1, 0))
    assert ss.gram == ((0, 1), (-1, 0))


def test_b2_frozen_matrices():
    p = 3
    b = make_B(2, p)
    assert b.f_mat == ((0, 0, 0, p), (0, 0, 1, 0), (0, 1, 0, 0), (p, 0, 0, 0))
    assert b.v_mat == ((0, 0, 0, 1), (0, 0, p, 0), (0, p, 0, 0), (1, 0, 0, 0))
    assert b.gram == ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0))


def test_b3_generating_relations():
    # F f_1 = -e_3 (d odd), F e_2 = f_1, F e_3 = f_2, V f_3 = e_1,
    # V e_1 = f_2, V e_2 = f_3; completion V e_3 = -p f_1 etc.
    p = 5
    b = make_B(3, p)
    f, v = b.f_mat, b.v_mat

    def col(m, j):
        return tuple(row[j] for row in m)

    e = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    fb = [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    assert col(f, 3) == tuple(-x for x in e[2])          # F f_1 = -e_3
    assert col(f, 1) == fb[0]                            # F e_2 = f_1
    assert col(f, 2) == fb[1]                            # F e_3 = f_2
    assert col(v, 5) == e[0]                             # V f_3 = e_1
    assert col(v, 0) == fb[1]                            # V e_1 = f_2
    assert col(v, 1) == fb[2]                            # V e_2 = f_3
    assert col(v, 2) == tuple(-p * x for x in fb[0])     # V e_3 = -p f_1
    assert col(f, 0) == tuple(p * x for x in fb[2])      # F e_1 = p f_3
    assert col(f, 4) == tuple(p * x for x in e[0])       # F f_2 = p e_1
    assert col(v, 4) == tuple(p * x for x in e[2])       # V f_2 = p e_3


@pytest.mark.parametrize("p", PRIMES)
def test_fv_equals_p_for_all_models(p):
    for module in [make_SS(p)] + [make_B(d, p) for d in range(1, 10)]:
        dim = module.dim
        p_id = tuple(tuple(p * int(i == j) for j in range(dim)) for i in range(dim))
        assert dense_mat_mul(module.f_mat, module.v_mat) == p_id
        assert dense_mat_mul(module.v_mat, module.f_mat) == p_id


def test_sparse_int_mat_mul_matches_dense_definition():
    rng = random.Random(17)
    cases = [(((0, 0), (0, 0)), ((0, 0), (0, 0))),
             (((1, 2, 3),), ((0,), (0,), (0,))),
             ((), ((1, 2),)),
             (make_B(4, 5).f_mat, make_B(4, 5).v_mat)]
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        for density in (0.0, 0.2, 0.6, 1.0):
            a = tuple(tuple(rng.randint(-9, 9) if rng.random() < density else 0
                            for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(rng.randint(-9, 9) if rng.random() < density else 0
                            for _ in range(cols)) for _ in range(inner))
            cases.append((a, b))
    for a, b in cases:
        got = mat_mul_q(a, b)
        assert got == dense_mat_mul(a, b), (a, b)
        # A product of int matrices stays int, zeros included.
        assert all(type(v) is int for row in got for v in row), (a, b)


def test_gauss_jordan_is_exact_on_integer_and_rational_matrices():
    rng = random.Random(23)
    mats = [[[0, 1], [-1, 0]], [[3, 1], [1, 1]], [[0, 0], [0, 0]],
            [list(row) for row in make_B(3, 7).gram]]
    for size in (1, 2, 3, 4, 5):
        for _ in range(6):
            mats.append([[rng.choice((0, 0, rng.randint(-5, 5)))
                          for _ in range(size)] for _ in range(size)])
            mats.append([[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(size)] for _ in range(size)])
    for mat in mats:
        det, inverse = gauss_jordan(mat)
        assert type(det) is Fraction
        assert det == _det_by_permutation_expansion(mat), mat
        if det == 0:
            assert inverse is None, mat
            continue
        assert all(type(v) is Fraction for row in inverse for v in row), mat
        size = len(mat)
        assert [[sum(mat[i][k] * inverse[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)] \
            == [[int(i == j) for j in range(size)] for i in range(size)], mat
    assert gauss_jordan([[1, 2], [2, 4]]) == (0, None)
    assert gauss_jordan([[0, 0, 0], [1, 2, 3], [4, 5, 6]]) == (0, None)


@pytest.mark.parametrize("p", (3, 7))
def test_integral_pairing_law(p):
    # <F x, y> = <x, V y> over the integers (entries are Frobenius-fixed).
    for module in [make_SS(p)] + [make_B(d, p) for d in range(1, 10)]:
        dim = module.dim
        g = module.gram

        def pair(u, w):
            return sum(u[i] * g[i][j] * w[j] for i in range(dim) for j in range(dim))

        for i in range(dim):
            x = tuple(int(t == i) for t in range(dim))
            fx = tuple(row[i] for row in module.f_mat)
            for j in range(dim):
                y = tuple(int(t == j) for t in range(dim))
                vy = tuple(row[j] for row in module.v_mat)
                assert pair(fx, y) == pair(x, vy), (i, j)


def test_module_validation_rejects_bad_input():
    p = 3
    with pytest.raises(ValueError):  # FV != p
        DieudonneModuleZ(p=p, ne=1, f_mat=((0, 1), (1, 0)),
                         v_mat=((0, 1), (1, 0)), gram=((0, 1), (-1, 0)))
    with pytest.raises(ValueError):  # grading not swapped
        DieudonneModuleZ(p=p, ne=1, f_mat=((p, 0), (0, p)),
                         v_mat=((1, 0), (0, 1)), gram=((0, 1), (-1, 0)))
    with pytest.raises(ValueError):  # pairing not unimodular
        DieudonneModuleZ(p=p, ne=1, f_mat=((0, -p), (1, 0)),
                         v_mat=((0, p), (-1, 0)), gram=((0, 2), (-2, 0)))
    with pytest.raises(ValueError):
        make_B(0, p)
    with pytest.raises(ValueError):
        make_SS(4)


@pytest.mark.parametrize("entry", (Fraction(3, 2), 1.5, True, "1"))
@pytest.mark.parametrize("name,i,j", (("f_mat", 1, 0), ("gram", 0, 1)))
def test_module_refuses_an_entry_that_is_not_an_int(name, i, j, entry):
    # The supersingular model at p = 3, with one entry 1 replaced: int()
    # would read each of these as 1 and accept the module.
    mats = {"f_mat": ((0, -3), (1, 0)), "gram": ((0, 1), (-1, 0))}
    rows = [list(row) for row in mats[name]]
    rows[i][j] = entry
    mats[name] = rows
    with pytest.raises(ValueError, match="must be integers"):
        DieudonneModuleZ(p=3, ne=1, v_mat=((0, 3), (-1, 0)), **mats)


@pytest.mark.parametrize("field,value", [("ne", True), ("ne", 1.0),
                                         ("p", 3.0)])
def test_module_refuses_p_or_ne_that_is_not_an_int(field, value):
    # The supersingular model at p = 3, with p or ne of another type: a
    # bool is not an int, and a float is refused, not a TypeError.
    args = dict(p=3, ne=1, f_mat=((0, -3), (1, 0)), v_mat=((0, 3), (-1, 0)),
                gram=((0, 1), (-1, 0)))
    args[field] = value
    with pytest.raises(ValueError, match="p and ne must be integers"):
        DieudonneModuleZ(**args)


# -- reductions: signature and the truncation axioms ---------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_signature_of_models(p):
    assert signature(make_SS(p).reduction()) == (1, 0)
    for d in range(1, 10):
        assert signature(make_B(d, p).reduction()) == (d - 1, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_model_reductions_are_bt1(p):
    assert check_bt1(make_SS(p).reduction())
    for d in range(1, 10):
        assert check_bt1(make_B(d, p).reduction())


def _enumerate_vectors(size, field_size):
    return itertools.product(range(field_size), repeat=size)


@pytest.mark.parametrize("space_maker", [
    lambda: make_SS(3).reduction(),
    lambda: make_B(2, 3).reduction(),
])
def test_bt1_by_exhaustive_enumeration(space_maker):
    """Oracle: compare Im F and Ker V as literal sets of vectors."""
    space = space_maker()
    fld = gfp2(space.p)
    for g in (0, 1):
        dims = space.dims()
        image = {apply_f(space, g, v) for v in _enumerate_vectors(dims[g], fld.size)}
        kernel = {v for v in _enumerate_vectors(dims[1 - g], fld.size)
                  if not any(apply_v(space, 1 - g, v))}
        assert image == kernel
        image_v = {apply_v(space, g, v) for v in _enumerate_vectors(dims[g], fld.size)}
        kernel_f = {v for v in _enumerate_vectors(dims[1 - g], fld.size)
                    if not any(apply_f(space, 1 - g, v))}
        assert image_v == kernel_f


def test_space_with_zero_operators_is_not_bt1():
    p = 3
    space = DieudonneSpace(p=p, ne=1, nebar=1,
                           f_e2ebar=((0,),), f_ebar2e=((0,),),
                           v_e2ebar=((0,),), v_ebar2e=((0,),),
                           gram=((1,),))
    assert not check_bt1(space)  # Im F = 0 but Ker V is everything


def test_space_validation_rejects_fv_nonzero():
    p = 3
    with pytest.raises(ValueError):
        DieudonneSpace(p=p, ne=1, nebar=1,
                       f_e2ebar=((1,),), f_ebar2e=((1,),),
                       v_e2ebar=((1,),), v_ebar2e=((1,),),
                       gram=((1,),))
    with pytest.raises(ValueError):  # degenerate pairing
        DieudonneSpace(p=p, ne=1, nebar=1,
                       f_e2ebar=((0,),), f_ebar2e=((0,),),
                       v_e2ebar=((0,),), v_ebar2e=((0,),),
                       gram=((0,),))


# -- the pairing law --------------------------------------------------------------


def _pair(space, grade1, v1, grade2, v2):
    """The full pairing from its definition: graded pieces isotropic,
    <x, y> = x^T G y for x in the e piece, antisymmetric."""
    if grade1 == grade2:
        return 0
    fld = space.field
    if grade1 == 1:
        return fld.neg(_pair(space, 0, v2, 1, v1))
    acc = 0
    for a, row in zip(v1, space.gram):
        for g, b in zip(row, v2):
            acc = fld.add(acc, fld.mul(fld.mul(a, g), b))
    return acc


def _pairing_law_by_basis_pairs(space):
    """Reference for pairing_law_holds: <F x, y> = <x, V y>^p tested on
    every pair of graded basis vectors, one pairing at a time."""
    fld = space.field
    dims = space.dims()
    for gx in (0, 1):
        f_cols = mat_transpose(space.f_matrix(gx))
        for i in range(dims[gx]):
            x = tuple(int(t == i) for t in range(dims[gx]))
            for gy in (0, 1):
                v_cols = mat_transpose(space.v_matrix(gy))
                for j in range(dims[gy]):
                    y = tuple(int(t == j) for t in range(dims[gy]))
                    lhs = _pair(space, 1 - gx, f_cols[i], gy, y)
                    rhs = fld.frob(_pair(space, gx, x, 1 - gy, v_cols[j]))
                    if lhs != rhs:
                        return False
    return True


def _random_space(p, k, rng):
    """A random space with both pieces of dimension k, usually not BT1.

    F_e (e -> ebar) and V_ebar (ebar -> e) get random entries on supports
    that make F_e frob(V_ebar) and V_ebar frob(F_e) vanish: V_ebar's rows
    avoid F_e's columns and its columns avoid F_e's rows; likewise F_ebar
    and V_e.  The gram is a random invertible matrix, and a random base
    change then fills in the zeros."""
    fld = gfp2(p)
    blocks = {}
    for f_name, v_name in (("f_e2ebar", "v_ebar2e"), ("f_ebar2e", "v_e2ebar")):
        f_rows = {i for i in range(k) if rng.random() < 0.6}
        f_cols = {j for j in range(k) if rng.random() < 0.6}
        v_rows = {i for i in range(k) if i not in f_cols and rng.random() < 0.8}
        v_cols = {j for j in range(k) if j not in f_rows and rng.random() < 0.8}
        for name, rows, cols in ((f_name, f_rows, f_cols),
                                 (v_name, v_rows, v_cols)):
            blocks[name] = tuple(
                tuple(rng.randrange(fld.size) if i in rows and j in cols else 0
                      for j in range(k)) for i in range(k))
    gram, _ = _random_invertible(fld, k, rng)
    space = DieudonneSpace(p=p, ne=k, nebar=k, gram=gram, **blocks)
    (p_mat, p_inv), (q_mat, q_inv) = (_random_invertible(fld, k, rng),
                                      _random_invertible(fld, k, rng))
    return basechange(space, p_mat, q_mat, p_inv, q_inv)


def test_pairing_law_matches_basis_pair_loop_on_random_spaces():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for p in PRIMES:
        for k in (1, 2, 3, 4):
            for _ in range(40):
                space = _random_space(p, k, rng)
                law = pairing_law_holds(space)
                assert law == _pairing_law_by_basis_pairs(space), space
                outcomes[law] += 1
    assert outcomes[True] and outcomes[False]


def test_pairing_law_matches_basis_pair_loop_on_base_changed_models():
    for p in PRIMES:
        for n in (1, 2, 3, 4):
            for r in range(1, n + 1):
                for seed in range(3):
                    space = random_basechange(model_space(n, r, p), seed)
                    assert pairing_law_holds(space)
                    assert _pairing_law_by_basis_pairs(space)


PERTURBED_BLOCKS = ("f_e2ebar", "f_ebar2e", "v_e2ebar", "v_ebar2e", "gram")


@pytest.mark.parametrize("name", PERTURBED_BLOCKS)
def test_pairing_law_matches_basis_pair_loop_on_perturbed_models(name):
    # Every single-entry change of the block that still gives a valid
    # space (F V = V F = 0, nondegenerate pairing) is compared.
    rng = random.Random(PERTURBED_BLOCKS.index(name))
    checked = 0
    for p in PRIMES:
        fld = gfp2(p)
        for n in (1, 2, 3, 4):
            for r in range(1, n + 1):
                model = model_space(n, r, p)
                for base in (model, random_basechange(model, 10 * n + r)):
                    block = getattr(base, name)
                    for i, j in itertools.product(range(len(block)),
                                                  range(len(block[0]))):
                        rows = [list(row) for row in block]
                        rows[i][j] = fld.add(rows[i][j],
                                             rng.randrange(1, fld.size))
                        try:
                            moved = dataclasses.replace(base, **{name: rows})
                        except ValueError:
                            continue
                        assert pairing_law_holds(moved) \
                            == _pairing_law_by_basis_pairs(moved), (p, n, r, i, j)
                        checked += 1
    assert checked >= 30


# -- rank identities against the earlier subspace computations ----------------


def _semilinear_kernel(fld, mat, ncols):
    """Kernel of v -> mat @ frob(v): the Frobenius of the linear kernel."""
    return rref(fld, tuple(vec_frob(fld, v) for v in kernel_basis(fld, mat, ncols)))


def _bt1_equalities(space):
    """The earlier check_bt1's reduced-subspace equalities, by the grade g
    of their target piece: (Im F = Ker V, Im V = Ker F) in grade 1, then
    in grade 0."""
    fld = space.field
    dims = space.dims()
    out = []
    for g in (0, 1):
        out.append((
            rref(fld, mat_transpose(space.f_matrix(g)))
            == _semilinear_kernel(fld, space.v_matrix(1 - g), dims[1 - g]),
            rref(fld, mat_transpose(space.v_matrix(g)))
            == _semilinear_kernel(fld, space.f_matrix(1 - g), dims[1 - g])))
    return tuple(out)


def _fingerprint_by_intersections(space):
    """The earlier fingerprint, kept as the reference: the third entry is
    dim X + dim Ker F - dim(X + Ker F), and every annihilator is computed
    from a freshly reduced basis."""
    fld = space.field
    dims = space.dims()

    def successors(node):
        grade, basis = node
        rows = tuple(mat_vec(fld, space.f_matrix(grade), vec_frob(fld, b))
                     for b in basis)
        ann = kernel_basis(fld, basis, dims[grade]) if basis \
            else identity_mat(dims[grade])
        lin = kernel_basis(fld, mat_mul(fld, ann, space.v_matrix(1 - grade)),
                           dims[1 - grade])
        return ((1 - grade, rref(fld, rows)),
                (1 - grade, rref(fld, tuple(vec_frob(fld, u) for u in lin))))

    seen = dieudonne._closure([(0, ()), (1, ()), (0, identity_mat(dims[0])),
                               (1, identity_mat(dims[1]))], successors)
    ker_f = {g: _semilinear_kernel(fld, space.f_matrix(g), dims[g])
             for g in (0, 1)}
    triples = []
    for grade, basis in seen:
        image = successors((grade, basis))[0][1]
        inter = len(basis) + len(ker_f[grade]) \
            - len(rref(fld, basis + ker_f[grade]))
        triples.append((len(basis), len(image), inter))
    return tuple(sorted(triples))


def test_check_bt1_ranks_match_subspace_equalities_on_random_spaces(monkeypatch):
    rng = random.Random(57)
    spaces = [_random_space(p, k, rng)
              for p in PRIMES for k in (1, 2, 3, 4, 5) for _ in range(30)]
    for space in spaces:
        equal = all(all(pair) for pair in _bt1_equalities(space))
        assert check_bt1(space) == (equal and pairing_law_holds(space))
    # With the pairing law out of the way the rank identities alone decide,
    # including on the spaces where, in one grade, exactly one of the two
    # equalities fails.
    monkeypatch.setattr(dieudonne, "pairing_law_holds", lambda space: True)
    outcomes = set()
    for space in spaces:
        pairs = _bt1_equalities(space)
        assert check_bt1(space) == all(all(pair) for pair in pairs), space
        outcomes.update(pairs)
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_precomputed_v_ranks_give_the_same_signature_and_bt1_answer():
    rng = random.Random(58)
    spaces = [_random_space(p, k, rng)
              for p in PRIMES for k in (1, 2, 3, 4) for _ in range(10)]
    spaces += [random_basechange(model_space(n, r, p), 3 * r + n)
               for p in PRIMES for n in (3, 5) for r in range(1, n + 1)]
    for space in spaces:
        fld = space.field
        ranks = v_ranks(space)
        # The earlier signature: ranks of the transposed V blocks.
        transposed = (space.ne - len(rref(fld, mat_transpose(space.v_ebar2e))),
                      space.nebar - len(rref(fld, mat_transpose(space.v_e2ebar))))
        assert signature(space) == signature(space, ranks) == transposed
        assert check_bt1(space) == check_bt1(space, ranks)


def test_classify_ranks_each_block_once(monkeypatch):
    space = random_basechange(model_space(5, 2, 3), 11)
    dieudonne._model_fingerprints(5)  # built beforehand
    ranked = []
    real_rank = dieudonne.rank

    def counting_rank(fld, rows):
        ranked.append(rows)
        return real_rank(fld, rows)

    monkeypatch.setattr(dieudonne, "rank", counting_rank)
    assert classify_type(space, 5) == 2
    # F_e, F_ebar, V_e, V_ebar, each once (the fingerprint uses rref).
    assert len(ranked) == 4
    blocks = (space.f_e2ebar, space.f_ebar2e, space.v_e2ebar, space.v_ebar2e)
    assert sorted(map(id, ranked)) == sorted(map(id, blocks))


def test_check_bt1_ranks_match_subspace_equalities_on_base_changed_models():
    for p in PRIMES:
        for n in (1, 2, 3, 5):
            for r in range(1, n + 1):
                for seed in range(3):
                    space = random_basechange(model_space(n, r, p), 7 * seed + r)
                    assert _bt1_equalities(space) == ((True, True),) * 2
                    assert check_bt1(space)


def test_fingerprint_matches_intersection_reference():
    rng = random.Random(58)
    for p in PRIMES:
        for k in (1, 2, 3, 4, 5):
            for _ in range(12):
                space = _random_space(p, k, rng)
                assert fingerprint(space) == _fingerprint_by_intersections(space)
        for n, r in ((3, 1), (3, 2), (5, 4), (5, 5)):
            space = random_basechange(model_space(n, r, p), n * r)
            assert fingerprint(space) == _fingerprint_by_intersections(space)


def test_closure_step_limit_is_a_classification_error(monkeypatch):
    assert dieudonne.CLOSURE_STEP_LIMIT == 100_000
    assert issubclass(ClosureLimitError, ClassificationError)
    space = random_basechange(model_space(3, 2, 3), 1)
    monkeypatch.setattr(dieudonne, "CLOSURE_STEP_LIMIT", 3)
    with pytest.raises(ClosureLimitError, match="failed to stabilize"):
        fingerprint(space)


# -- direct sums ---------------------------------------------------------------


def test_direct_sum_adds_signatures_and_dims():
    p = 5
    a = make_B(3, p).reduction()
    b = make_SS(p).reduction()
    total = direct_sum(a, b)
    assert total.dims() == (4, 4)
    sig_a, sig_b = signature(a), signature(b)
    assert signature(total) == (sig_a[0] + sig_b[0], sig_a[1] + sig_b[1])
    assert check_bt1(total)
    with pytest.raises(ValueError):
        direct_sum(make_SS(3).reduction(), make_SS(5).reduction())


def test_nary_direct_sum_equals_pairwise_fold():
    for p in (3, 5):
        pieces = [make_B(3, p).reduction(), make_SS(p).reduction(),
                  random_basechange(model_space(2, 1, p), p),
                  make_B(1, p).reduction()]
        assert direct_sum(pieces[0]) == pieces[0]
        for count in range(2, len(pieces) + 1):
            folded = pieces[0]
            for piece in pieces[1:count]:
                folded = direct_sum(folded, piece)
            assert direct_sum(*pieces[:count]) == folded


@pytest.mark.parametrize("position", range(4))
def test_nary_direct_sum_refuses_a_prime_mismatch_anywhere(position):
    pieces = [make_SS(3).reduction()] * 4
    pieces[position] = make_SS(5).reduction()
    with pytest.raises(ValueError, match="prime mismatch"):
        direct_sum(*pieces)


def test_model_space_json_is_unchanged():
    # sha256 of the compact JSON of every model with odd n <= 9 and
    # p in {3, 5, 7}, recorded with the pairwise direct sum.
    digest = hashlib.sha256()
    for p in (3, 5, 7):
        for n in range(3, 10, 2):
            for r in range(1, n + 1):
                digest.update(json.dumps(model_space(n, r, p).to_json(),
                                         separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "aaacc5b07389def7ffe224ceb5f9e1eefc3d10fd4342f62a9df3a39dec546e51")


# -- base change ---------------------------------------------------------------


def test_basechange_with_identity_is_identity():
    space = model_space(5, 3, 3)
    unit = identity_mat(5)
    assert basechange(space, unit, unit, unit, unit) == space


def test_random_basechange_preserves_invariants():
    space = model_space(5, 2, 3)
    for seed in range(8):
        moved = random_basechange(space, seed)
        assert signature(moved) == signature(space)
        assert check_bt1(moved)
        assert pairing_law_holds(moved)
        assert fingerprint(moved) == fingerprint(space)


def test_random_basechange_is_seeded():
    space = model_space(3, 2, 5)
    assert random_basechange(space, 11) == random_basechange(space, 11)


@pytest.mark.parametrize("p", PRIMES)
def test_sampler_pairs_are_inverse_and_draw_like_the_rank_sampler(p):
    fld = gfp2(p)
    for size in range(1, 8):
        rng, ref_rng = random.Random(size), random.Random(size)
        for _ in range(4):
            m, m_inv = _random_invertible(fld, size, rng)
            assert m == ref_random_invertible(fld, size, ref_rng)
            assert mat_mul(fld, m, m_inv) == identity_mat(size)
            assert mat_mul(fld, m_inv, m) == identity_mat(size)
        # the same draws, rejected candidates included
        assert rng.random() == ref_rng.random()


def test_random_basechange_matches_the_two_elimination_sampler():
    spaces = [model_space(n, r, p) for n, r, p in
              ((1, 1, 3), (3, 2, 3), (4, 1, 5), (5, 5, 7), (7, 4, 3))]
    spaces.append(make_SS(5).reduction())
    for seed in range(60):
        space = spaces[seed % len(spaces)]
        assert random_basechange(space, seed) \
            == ref_random_basechange(space, seed), seed


def test_basechange_takes_the_inverses_as_given():
    fld = gfp2(5)
    space = model_space(3, 2, 5)
    (p_mat, p_inv), (q_mat, q_inv) = random_frames(fld, 3, 3, 4)
    moved = basechange(space, p_mat, q_mat, p_inv, q_inv)
    assert moved == random_basechange(space, 4)
    assert moved == basechange(space, p_mat, q_mat, mat_inv(fld, p_mat),
                               mat_inv(fld, q_mat))
    # the inverses are taken as given, and the new space is validated: a
    # wrong one breaks F V = 0 here
    with pytest.raises(ValueError, match="F V = V F = 0 fails"):
        basechange(space, p_mat, q_mat, p_inv, p_inv)


# -- classification ------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(3, 3), (5, 3), (7, 3), (9, 3), (3, 5), (5, 5),
                                 (7, 5), (9, 5)])
def test_model_fingerprints_pairwise_distinct(n, p):
    prints = [fingerprint(model_space(n, r, p)) for r in range(1, n + 1)]
    assert len(set(prints)) == n


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_coordinate_fingerprint_matches_row_reduced_closure(p):
    # The closed-form model fingerprints against the row-reduced closure
    # of every model with n <= 16, odd and even, and at p = 3 also of
    # every model with odd n <= 25.
    for n in [*range(1, 17), *(range(17, 26, 2) if p == 3 else ())]:
        for r, closed_form in _model_fingerprints(n):
            assert closed_form == fingerprint(model_space(n, r, p)), (n, r)


def test_closed_form_fingerprints_pairwise_distinct_to_99():
    for n in range(1, 100, 2):
        types, prints = zip(*_model_fingerprints(n))
        assert types == tuple(range(1, n + 1)) and len(set(prints)) == n, n


def test_classify_models_and_roundtrip():
    for n in (3, 5):
        for p in (3, 5):
            for r in range(1, n + 1):
                model = model_space(n, r, p)
                assert classify_type(model, n) == r
                for seed in range(3):
                    assert classify_type(random_basechange(model, seed), n) == r


@pytest.mark.parametrize("p", (3, 11))
@pytest.mark.parametrize("n", (9, 11, 13, 15))
def test_classify_recovers_every_type_at_large_n(n, p):
    for r in range(1, n + 1):
        space = random_basechange(model_space(n, r, p), 100 * n + r)
        assert classify_type(space, n) == r, r


def test_classify_builds_no_model(monkeypatch):
    spaces = {(n, r): random_basechange(model_space(n, r, 5), n + r)
              for n in (1, 4, 7) for r in range(1, n + 1)}

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    for name in ("model_space", "direct_sum", "make_B", "make_SS"):
        monkeypatch.setattr(dieudonne, name, refuse)
    dieudonne._model_fingerprints.cache_clear()
    for (n, r), space in spaces.items():
        assert classify_type(space, n) == r, (n, r)


def test_classify_survives_100_basechanges_per_type():
    p = 3
    for n in (3, 5, 7):
        for r in range(1, n + 1):
            model = model_space(n, r, p)
            for seed in range(100):
                assert classify_type(random_basechange(model, seed), n) == r


def test_classify_rejects_wrong_signature():
    # n supersingular planes have signature (n, 0), not (n-1, 1).
    n = 3
    space = make_SS(3).reduction()
    for _ in range(n - 1):
        space = direct_sum(space, make_SS(3).reduction())
    with pytest.raises(NotBT1Error):
        classify_type(space, n)


def test_classify_rejects_wrong_dimensions():
    with pytest.raises(NotBT1Error):
        classify_type(model_space(3, 1, 3), 5)


def test_classify_rejects_non_bt1():
    space = DieudonneSpace(p=3, ne=1, nebar=1,
                           f_e2ebar=((0,),), f_ebar2e=((0,),),
                           v_e2ebar=((0,),), v_ebar2e=((0,),),
                           gram=((1,),))
    with pytest.raises(NotBT1Error):
        classify_type(space, 1)


def test_classification_errors_are_distinct_types():
    assert issubclass(NotBT1Error, Exception)
    assert issubclass(NoMatchError, Exception)
    assert NotBT1Error is not NoMatchError


# -- JSON ------------------------------------------------------------------------


def test_space_json_roundtrip():
    space = model_space(5, 4, 3)
    data = space.to_json()
    assert data["p"] == 3 and data["ne"] == 5 and data["nebar"] == 5
    assert DieudonneSpace.from_json(data) == space
    moved = random_basechange(space, 3)  # entries off the prime field
    assert DieudonneSpace.from_json(moved.to_json()) == moved


# -- Newton slopes ---------------------------------------------------------------


def _det_by_permutation_expansion(mat):
    size = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):  # count inversions
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(size):
            term *= mat[i][perm[i]]
        total += sign * term
    return total


def test_char_poly_matches_permanent_style_determinant():
    rng = random.Random(9)
    mats = [[[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
            for size in (2, 3, 4) for _ in range(5)]
    rng = random.Random(10)
    for size in (2, 3, 4, 5):
        for _ in range(5):
            # sparse: about three entries in four are zero
            mats.append([[rng.choice((0, 0, 0, rng.randint(-9, 9)))
                          for _ in range(size)] for _ in range(size)])
            # monomial: one nonzero per row and column, like make_B's F
            perm = rng.sample(range(size), size)
            mats.append([[rng.choice((-27, -3, 1, 3, 9)) if j == perm[i] else 0
                          for j in range(size)] for i in range(size)])
    mats.append([[0, 0], [0, 0]])
    for mat in mats:
        size = len(mat)
        coeffs = char_poly(mat)
        assert all(type(c) is int for c in coeffs)
        for lam in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            direct = _det_by_permutation_expansion(
                [[lam * int(i == j) - mat[i][j] for j in range(size)]
                 for i in range(size)])
            value = sum(c * lam ** k for k, c in enumerate(coeffs))
            assert value == direct


def test_char_poly_refuses_an_inexact_division():
    with pytest.raises(ArithmeticError):
        char_poly([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_padic_newton_slopes_on_factored_polynomials():
    p = 3
    # (t - 1)(t - p)(t - p^2): valuations 0, 1, 2
    coeffs = [Fraction(-p ** 3), Fraction(p ** 3 + p ** 2 + p), Fraction(-1 - p - p * p), Fraction(1)]
    assert padic_newton_slopes(coeffs, p) == [(0, 1), (1, 1), (2, 1)]
    # (t^2 - p)(t - 1): valuations 1/2, 1/2, 0
    coeffs = [Fraction(p), Fraction(-p), Fraction(-1), Fraction(1)]
    assert sorted(padic_newton_slopes(coeffs, p)) == [(0, 1), (Fraction(1, 2), 2)]
    with pytest.raises(ValueError):
        padic_newton_slopes([0, 1], p)


@pytest.mark.parametrize("p", PRIMES)
def test_newton_slopes_of_models(p):
    assert newton_slopes(make_SS(p)).entries == ((Fraction(1, 2), 2),)
    for d in range(1, 13, 2):
        assert newton_slopes(make_B(d, p)).entries == ((Fraction(1, 2), 2 * d),)
    for d in range(2, 13, 2):
        assert newton_slopes(make_B(d, p)).entries == (
            (Fraction(1, 2) - Fraction(1, d), d),
            (Fraction(1, 2) + Fraction(1, d), d))


def _reference_slopes(module):
    return SlopeMultiset.from_pairs(
        padic_newton_slopes(char_poly(module.f_mat), module.p))


@pytest.mark.parametrize("p", PRIMES)
def test_newton_slopes_match_the_newton_polygon_of_char_poly(p):
    assert newton_slopes(make_SS(p)) == _reference_slopes(make_SS(p))
    for d in range(1, 17):
        assert newton_slopes(make_B(d, p)) == _reference_slopes(make_B(d, p))


def test_newton_slopes_refuse_a_model_whose_f_is_not_monomial():
    # SS + SS on (g1, g2, h1, h2), its e piece moved by A = [[1, 1], [0, 1]]:
    # a valid integral model with slope 1/2 four times, but F g2 = h1 + h2.
    p = 3
    f = ((0, 0, -p, 0), (0, 0, 0, -p), (1, 0, 0, 0), (0, 1, 0, 0))
    v = ((0, 0, p, 0), (0, 0, 0, p), (-1, 0, 0, 0), (0, -1, 0, 0))
    gram = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    move = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    back = ((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    moved = DieudonneModuleZ(
        p=p, ne=2,
        f_mat=dense_mat_mul(back, dense_mat_mul(f, move)),
        v_mat=dense_mat_mul(back, dense_mat_mul(v, move)),
        gram=dense_mat_mul(tuple(zip(*move)), dense_mat_mul(gram, move)))
    assert moved.f_mat[2] == (1, 1, 0, 0)
    assert _reference_slopes(moved).entries == ((Fraction(1, 2), 4),)
    with pytest.raises(ValueError, match="not monomial"):
        newton_slopes(moved)


@pytest.mark.parametrize("f_mat", [((1, 1), (0, 1)),   # two in row 0
                                   ((0, 1), (0, 1)),   # two in column 1
                                   ((0, 0), (0, 1))])  # none in row 0
def test_newton_slopes_refuse_an_f_off_one_entry_per_row_and_column(f_mat):
    # No valid model has such an F (F V = p makes F invertible over Q), so
    # the check is run on a stand-in with the two fields it reads.
    with pytest.raises(ValueError, match="not monomial"):
        newton_slopes(SimpleNamespace(p=3, f_mat=f_mat))


def test_slope_multiset_helpers():
    ms = SlopeMultiset.from_pairs([(Fraction(3, 4), 4), (Fraction(1, 4), 4)])
    assert ms.entries == ((Fraction(1, 4), 4), (Fraction(3, 4), 4))
    assert ms.total() == 8 and ms.is_symmetric()
    assert not SlopeMultiset.from_pairs([(Fraction(1, 4), 4)]).is_symmetric()
    assert ms.to_json() == [{"slope": "1/4", "mult": 4}, {"slope": "3/4", "mult": 4}]
    with pytest.raises(ValueError):
        SlopeMultiset.from_pairs([(Fraction(5, 4), 1)])


# -- isocrystal shapes -----------------------------------------------------------


def test_isocrystal_shape_frozen_examples():
    assert isocrystal_shape(5, 0).slopes.entries == ((Fraction(1, 2), 10),)
    assert isocrystal_shape(5, 2).slopes.entries == (
        (Fraction(1, 4), 4), (Fraction(1, 2), 2), (Fraction(3, 4), 4))
    assert isocrystal_shape(5, 1).slopes.entries == (
        (Fraction(0), 2), (Fraction(1, 2), 6), (Fraction(1), 2))


def test_isocrystal_factor_multiplicity_convention():
    even = isocrystal_shape(9, 2)
    assert [(f.slope, f.dim, f.count) for f in even.factors[:2]] == [
        (Fraction(1, 4), 4, 1), (Fraction(3, 4), 4, 1)]
    odd = isocrystal_shape(9, 3)
    assert [(f.slope, f.dim, f.count) for f in odd.factors[:2]] == [
        (Fraction(1, 3), 3, 2), (Fraction(2, 3), 3, 2)]
    for shape in (even, odd):
        assert shape.factors[-1] == shape.factors[-1].__class__(
            Fraction(1, 2), 2, shape.n - 2 * shape.r)


def test_isocrystal_shape_totals_and_symmetry():
    for n in range(3, 100, 2):
        for r in range((n - 1) // 2 + 1):
            shape = isocrystal_shape(n, r)
            assert shape.slopes.total() == 2 * n
            assert shape.slopes.is_symmetric()
            assert sum(f.dim * f.count for f in shape.factors) == 2 * n


def test_isocrystal_shape_range_checks():
    with pytest.raises(ValueError):
        isocrystal_shape(5, 3)
    with pytest.raises(ValueError):
        isocrystal_shape(4, 1)


def test_paired_block_matches_even_model_slopes():
    # The even-d banded model realizes the paired block at r = d/2.
    for p in (3, 5):
        for d in (2, 4, 6, 8):
            expected = SlopeMultiset.from_pairs(paired_block_slopes(d // 2))
            assert newton_slopes(make_B(d, p)) == expected


# -- strata ----------------------------------------------------------------------


def test_strata_dims_frozen_n5():
    assert [row.dim for row in strata_dims(5)] == [0, 4, 1, 3, 2]


def test_strata_dims_formulas_and_flags():
    for n in range(3, 100, 2):
        rows = strata_dims(n)
        assert [row.r for row in rows] == list(range(1, n + 1))
        for row in rows:
            if row.r % 2 == 0:
                assert row.dim == n - row.r // 2
                assert not row.supersingular
            else:
                assert row.dim == (row.r - 1) // 2
                assert row.supersingular
                assert row.slopes.entries == ((Fraction(1, 2), 2 * n),)
            assert row.ordinary == (row.r == 2)
        odd_dims = [row.dim for row in rows if row.r % 2 == 1]
        assert max(odd_dims) == (n - 1) // 2 == rows[n - 1].dim
        assert rows[1].dim == n - 1


def test_open_stratum_is_mu_ordinary_not_ordinary():
    # r = 2 has slopes {0 x2, 1/2 x 2(n-2), 1 x2}: the mu-ordinary Newton
    # type.  No row is ordinary in the strict sense (slopes 0 and 1 only).
    for n in range(3, 16, 2):
        rows = strata_dims(n)
        assert rows[1].r == 2 and rows[1].ordinary
        assert rows[1].slopes.entries == ((Fraction(0), 2),
                                          (Fraction(1, 2), 2 * (n - 2)),
                                          (Fraction(1), 2))
        assert [row.r for row in rows if row.ordinary] == [2]
        for row in rows:
            assert any(s == Fraction(1, 2) for s, _ in row.slopes.entries)


def test_strata_even_rows_carry_newton_shape():
    rows = strata_dims(7)
    assert rows[3].slopes == isocrystal_shape(7, 2).slopes  # r = 4
