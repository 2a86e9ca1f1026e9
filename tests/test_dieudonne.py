import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest

import guhecke.dieudonne as dieudonne
import reference
from guhecke.cli import main
from guhecke.dieudonne import (DieudonneModuleZ, DieudonneSpace, NoMatchError,
                               NotBT1Error, SlopeMultiset,
                               _model_fingerprints, _random_invertible,
                               basechange, char_poly,
                               check_bt1, classify_type, fingerprint,
                               integral_model, isocrystal_shape, model_space,
                               newton_slopes, paired_block_slopes,
                               pairing_law_holds, random_basechange,
                               random_frames, signature, strata_dims)
from guhecke.finitefield import (annihilator_rows, gfp2, identity_mat,
                                  kernel_basis, mat_frob, mat_inv, mat_mul,
                                  mat_transpose, rref)
from guhecke.guards import MAX_N
from reference import (apply_f, apply_v, dense_mat_mul, dense_view,
                       gauss_jordan, mat_vec, padic_newton_slopes,
                       ref_basechange, ref_bt1_space, ref_classify_type,
                       ref_closure, ref_direct_sum, ref_fingerprint,
                       ref_random_basechange, ref_random_invertible,
                       ref_signature, ref_v_kernels, vec_frob)

PRIMES = (3, 5, 7)


def ss(p):
    """The rank-2 supersingular model."""
    return integral_model(1, 0, p)


def banded(d, p):
    """The rank-2d banded model B_d."""
    return integral_model(d, d, p)


# -- integral models ----------------------------------------------------------


def test_ss_frozen_matrices():
    p = 5
    assert ss(p).f_map == ((1, 1), (0, -p))
    assert dense_view(ss(p)) == (((0, -p), (1, 0)), ((0, p), (-1, 0)),
                                 ((0, 1), (-1, 0)))


def test_b2_frozen_matrices():
    p = 3
    f, v, gram = dense_view(banded(2, p))
    assert f == ((0, 0, 0, p), (0, 0, 1, 0), (0, 1, 0, 0), (p, 0, 0, 0))
    assert v == ((0, 0, 0, 1), (0, 0, p, 0), (0, p, 0, 0), (1, 0, 0, 0))
    assert gram == ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0))


def test_b3_generating_relations():
    # F f_1 = -e_3 (d odd), F e_2 = f_1, F e_3 = f_2, V f_3 = e_1,
    # V e_1 = f_2, V e_2 = f_3; completion V e_3 = -p f_1 etc.
    p = 5
    f, v, _ = dense_view(banded(3, p))

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


def _models(p, max_n=6):
    """The plane, every B_d with d < 10, and every type-r model with
    n <= max_n, r = 0..n."""
    return [ss(p), *(banded(d, p) for d in range(1, 10)),
            *(integral_model(n, r, p) for n in range(1, max_n + 1)
              for r in range(n + 1))]


@pytest.mark.parametrize("p", PRIMES)
def test_fv_equals_p_for_all_models(p):
    for module in _models(p):
        f, v, _ = dense_view(module)
        dim = len(f)
        p_id = tuple(tuple(p * int(i == j) for j in range(dim)) for i in range(dim))
        assert dense_mat_mul(f, v) == p_id
        assert dense_mat_mul(v, f) == p_id


@pytest.mark.parametrize("p", (3, 7))
def test_integral_pairing_law(p):
    # <F x, y> = <x, V y> over the integers (entries are Frobenius-fixed),
    # and the gram matrix is alternating and unimodular.
    for module in _models(p):
        f, v, g = dense_view(module)
        dim = len(f)
        assert all(g[i][j] == -g[j][i] for i in range(dim) for j in range(dim))
        assert abs(gauss_jordan(g)[0]) == 1

        def pair(u, w):
            return sum(u[i] * g[i][j] * w[j] for i in range(dim) for j in range(dim))

        for i in range(dim):
            x = tuple(int(t == i) for t in range(dim))
            fx = tuple(row[i] for row in f)
            for j in range(dim):
                y = tuple(int(t == j) for t in range(dim))
                vy = tuple(row[j] for row in v)
                assert pair(fx, y) == pair(x, vy), (i, j)


def test_integral_model_and_model_space_refuse_a_type_out_of_range():
    for n, r in ((3, -1), (3, 4), (0, 1)):
        with pytest.raises(ValueError, match="need 0 <= r <= n"):
            integral_model(n, r, 3)
    with pytest.raises(ValueError, match="out of range 1..3"):
        model_space(3, 0, 3)
    with pytest.raises(ValueError, match="ne >= 1"):
        integral_model(0, 0, 3)


# The supersingular model at p = 3, arrow by arrow.
SS3 = dict(p=3, ne=1, f_map=((1, 1), (0, -3)), v_map=((1, -1), (0, 3)),
           pair=((1, 1), (0, -1)))


def test_module_validation_rejects_bad_input():
    DieudonneModuleZ(**SS3)
    for change, match in (
            # F V != p: V's weights doubled
            (dict(v_map=((1, -2), (0, 6))), "F V = V F = p fails"),
            # V F = p on b_0 only: F b_1 = 3 b_0 instead of -3 b_0
            (dict(f_map=((1, 1), (0, 3))), "F V = V F = p fails"),
            # F and V do not swap the grading
            (dict(f_map=((0, 3), (1, 1)), v_map=((0, 1), (1, 3))), "swap"),
            # an index off the basis
            (dict(f_map=((2, 1), (0, -3))), "swap"),
            (dict(f_map=((-1, 1), (0, -3))), "swap"),
            # pairing not unimodular
            (dict(pair=((1, 2), (0, -2))), "matching"),
            # pairing not alternating
            (dict(pair=((1, 1), (0, 1))), "matching"),
            # too few arrows
            (dict(pair=((1, 1),)), "arrows per map")):
        with pytest.raises(ValueError, match=match):
            DieudonneModuleZ(**{**SS3, **change})
    for p in (4, 9, 2, 1):  # not an odd prime
        with pytest.raises(ValueError):
            integral_model(2, 1, p)


@pytest.mark.parametrize("f_map", [
    ((2, 1), (3, 1), (0, -3), (0, -3)),  # two arrows into b_0
    ((2, 1), (3, 0), (0, -3), (1, -3)),  # a zero weight: F b_1 = 0
    ((2, 1), (2, 1), (0, -3), (1, -3)),  # none into b_3
    ((3, 1), (2, 1), (0, -3), (1, -3)),  # a permutation, not V's inverse
])
def test_module_refuses_an_f_that_does_not_permute_the_basis(f_map):
    # Two planes on (g1, g2, h1, h2) at p = 3.  The arrows hold no
    # non-monomial F, and an F that is not a weighted permutation inverse
    # to V's is refused by the constructor, before any slope is read.
    planes = integral_model(2, 0, 3)
    assert planes.f_map == ((2, 1), (3, 1), (0, -3), (1, -3))
    with pytest.raises(ValueError, match="F V = V F = p fails"):
        DieudonneModuleZ(p=3, ne=2, f_map=f_map, v_map=planes.v_map,
                         pair=planes.pair)


@pytest.mark.parametrize("entry", (Fraction(3, 2), 1.5, True, "1"))
@pytest.mark.parametrize("name,i,j", (("f_mat", 1, 0), ("gram", 0, 1)))
def test_module_refuses_an_entry_that_is_not_an_int(name, i, j, entry):
    # The supersingular model at p = 3, with the entry (i, j) = 1 of its
    # dense F or gram replaced in the arrow that holds it: int() would
    # read each of these as 1 and accept the module.
    field, source = {"f_mat": ("f_map", j), "gram": ("pair", i)}[name]
    arrows = [list(arrow) for arrow in SS3[field]]
    arrows[source][1] = entry
    with pytest.raises(ValueError, match="must be integers"):
        DieudonneModuleZ(**{**SS3, field: arrows})


@pytest.mark.parametrize("entry", (Fraction(1, 1), 1.0, True, "1"))
def test_module_refuses_an_index_that_is_not_an_int(entry):
    with pytest.raises(ValueError, match="must be integers"):
        DieudonneModuleZ(**{**SS3, "v_map": ((entry, -1), (0, 3))})


@pytest.mark.parametrize("field,value", [("ne", True), ("ne", 1.0),
                                         ("p", 3.0)])
def test_module_refuses_p_or_ne_that_is_not_an_int(field, value):
    # The supersingular model at p = 3, with p or ne of another type: a
    # bool is not an int, and a float is refused, not a TypeError.
    with pytest.raises(ValueError, match="p and ne must be integers"):
        DieudonneModuleZ(**{**SS3, field: value})


def test_module_names_the_first_arrow_that_is_not_an_int():
    # Maps are checked in the order f_map, v_map, pair and arrows in
    # order within each, so the error names the first bad arrow; a bool
    # is refused like any other type that is not int.
    for change, named in (
            (dict(v_map=((1, -1), (0, 3.0)), pair=((1, True), (0, -1))),
             "[0, 3.0]"),
            (dict(f_map=((1, True), (0, Fraction(-3)))), "[1, True]"),
            (dict(pair=[(1, 1), [0, "-1"]]), "[0, '-1']")):
        with pytest.raises(ValueError) as info:
            DieudonneModuleZ(**{**SS3, **change})
        assert str(info.value) == f"arrows must be integers, got {named}"


def test_module_arrows_are_stored_as_int_tuples():
    module = DieudonneModuleZ(**{**SS3, "f_map": [[1, 1], [0, -3]]})
    assert module == DieudonneModuleZ(**SS3)
    assert module.f_map == ((1, 1), (0, -3))


def test_b_1000_builds_and_gives_its_slopes():
    module = integral_model(1000, 1000, 3)
    assert len(module.f_map) == len(module.v_map) == len(module.pair) == 2000
    assert newton_slopes(module).entries == ((Fraction(499, 1000), 1000),
                                             (Fraction(501, 1000), 1000))


# -- reductions: signature and the truncation axioms ---------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_signature_of_models(p):
    assert signature(ss(p).reduction()) == (1, 0)
    for d in range(1, 10):
        assert signature(banded(d, p).reduction()) == (d - 1, 1)
    for n in range(1, 7):
        assert signature(integral_model(n, 0, p).reduction()) == (n, 0)
        for r in range(1, n + 1):
            assert signature(integral_model(n, r, p).reduction()) == (n - 1, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_model_reductions_are_bt1(p):
    for module in _models(p):
        assert check_bt1(module.reduction())


def _enumerate_vectors(size, field_size):
    return itertools.product(range(field_size), repeat=size)


@pytest.mark.parametrize("space_maker", [
    lambda: ss(3).reduction(),
    lambda: banded(2, 3).reduction(),
])
def test_bt1_by_exhaustive_enumeration(space_maker):
    """Oracle: compare Im F and Ker V as literal sets of vectors."""
    space = space_maker()
    fld = gfp2(space.p)
    vectors = list(_enumerate_vectors(space.ne, fld.size))
    for g in (0, 1):
        image = {apply_f(space, g, v) for v in vectors}
        kernel = {v for v in vectors if not any(apply_v(space, 1 - g, v))}
        assert image == kernel
        image_v = {apply_v(space, g, v) for v in vectors}
        kernel_f = {v for v in vectors if not any(apply_f(space, 1 - g, v))}
        assert image_v == kernel_f


def test_space_with_zero_operators_is_not_bt1():
    p = 3
    space = DieudonneSpace(p=p, ne=1,
                           f_e2ebar=((0,),), f_ebar2e=((0,),),
                           v_e2ebar=((0,),), v_ebar2e=((0,),),
                           gram=((1,),))
    assert not check_bt1(space)  # Im F = 0 but Ker V is everything


@pytest.mark.parametrize("entry", (True, 1.0, Fraction(1)))
@pytest.mark.parametrize("name", ("f_e2ebar", "v_ebar2e", "gram"))
def test_space_refuses_an_entry_that_is_not_an_int(name, entry):
    space = model_space(3, 2, 3)
    rows = [list(row) for row in getattr(space, name)]
    rows[0][0] = entry
    with pytest.raises(ValueError, match=f"{name} entries must be integers"):
        dataclasses.replace(space, **{name: rows})


def test_space_validation_rejects_fv_nonzero():
    p = 3
    with pytest.raises(ValueError):
        DieudonneSpace(p=p, ne=1,
                       f_e2ebar=((1,),), f_ebar2e=((1,),),
                       v_e2ebar=((1,),), v_ebar2e=((1,),),
                       gram=((1,),))
    with pytest.raises(ValueError):  # degenerate pairing
        DieudonneSpace(p=p, ne=1,
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
    fld, unit = space.field, identity_mat(space.ne)
    for gx in (0, 1):
        f_cols = mat_transpose(space.f_matrix(gx))
        for i, x in enumerate(unit):
            for gy in (0, 1):
                v_cols = mat_transpose(space.v_matrix(gy))
                for j, y in enumerate(unit):
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
    space = DieudonneSpace(p=p, ne=k, gram=gram, **blocks)
    frames = _random_invertible(fld, k, rng), _random_invertible(fld, k, rng)
    return basechange([space], *frames)[0]


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
    fld, n = space.field, space.ne
    out = []
    for g in (0, 1):
        out.append((
            rref(fld, mat_transpose(space.f_matrix(g)))
            == _semilinear_kernel(fld, space.v_matrix(1 - g), n),
            rref(fld, mat_transpose(space.v_matrix(g)))
            == _semilinear_kernel(fld, space.f_matrix(1 - g), n)))
    return tuple(out)


def _fingerprint_by_intersections(space):
    """The earlier fingerprint, kept as the reference: the third entry is
    dim X + dim Ker F - dim(X + Ker F), and every annihilator is computed
    from a freshly reduced basis."""
    fld, n = space.field, space.ne

    def successors(node):
        grade, basis = node
        rows = tuple(mat_vec(fld, space.f_matrix(grade), vec_frob(fld, b))
                     for b in basis)
        ann = kernel_basis(fld, basis, n) if basis else identity_mat(n)
        lin = kernel_basis(fld, mat_mul(fld, ann, space.v_matrix(1 - grade)),
                           n)
        return ((1 - grade, rref(fld, rows)),
                (1 - grade, rref(fld, tuple(vec_frob(fld, u) for u in lin))))

    seen = ref_closure([(0, ()), (1, ()), (0, identity_mat(n)),
                        (1, identity_mat(n))], successors)
    ker_f = {g: _semilinear_kernel(fld, space.f_matrix(g), n)
             for g in (0, 1)}
    triples = []
    for grade, basis in seen:
        image = successors((grade, basis))[0][1]
        inter = len(basis) + len(ker_f[grade]) \
            - len(rref(fld, basis + ker_f[grade]))
        triples.append((len(basis), len(image), inter))
    return tuple(sorted(triples))


def test_check_bt1_ranks_match_subspace_equalities_on_random_spaces():
    rng = random.Random(57)
    spaces = [_random_space(p, k, rng)
              for p in PRIMES for k in (1, 2, 3, 4, 5) for _ in range(30)]
    for space in spaces:
        equal = all(all(pair) for pair in _bt1_equalities(space))
        assert check_bt1(space) == (equal and pairing_law_holds(space))
    # On the spaces that satisfy the law, check_bt1 is the subspace
    # equalities, and in each grade the two stand or fall together, as
    # the law makes V F's adjoint.  Moved models and supersingular sums,
    # all BT1, join the random spaces, so that both answers occur.
    spaces += [random_basechange(integral_model(n, r, p).reduction(), n + r)
               for p in PRIMES for n in (1, 2, 3, 4) for r in range(n + 1)]
    outcomes, answers = set(), set()
    for space in filter(pairing_law_holds, spaces):
        pairs = _bt1_equalities(space)
        assert check_bt1(space) == all(all(pair) for pair in pairs), space
        outcomes.update(pairs)
        answers.add(check_bt1(space))
    assert outcomes == {(True, True), (False, False)}
    assert answers == {True, False}


def _assert_refused(space):
    """signature and fingerprint both raise NotBT1Error on the space."""
    for gated in (signature, fingerprint):
        with pytest.raises(NotBT1Error, match="the pairing law fails"):
            gated(space)


def test_signature_and_bt1_match_the_transposed_rank_reference():
    # The earlier signature, n minus the ranks of the transposed V blocks,
    # and the earlier rank identities, rank F_g + rank V_(1-g) = n, each
    # rank by an elimination of its own, against the block eliminations.
    # The signature and the fingerprint take BT1 spaces only; the others
    # get NotBT1Error.
    rng = random.Random(58)
    spaces = [_random_space(p, k, rng)
              for p in PRIMES for k in (1, 2, 3, 4) for _ in range(10)]
    spaces += [random_basechange(model_space(n, r, p), 3 * r + n)
               for p in PRIMES for n in (3, 5) for r in range(1, n + 1)]
    answers = set()
    for space in spaces:
        fld, n = space.field, space.ne
        rank_v = [len(rref(fld, mat_transpose(space.v_matrix(g))))
                  for g in (0, 1)]
        assert ref_signature(space) == (n - rank_v[1], n - rank_v[0])
        identities = all(len(rref(fld, space.f_matrix(g))) + rank_v[1 - g] == n
                         for g in (0, 1))
        bt1 = check_bt1(space)
        assert bt1 == (identities and pairing_law_holds(space))
        if bt1:
            assert signature(space) == ref_signature(space), space
        else:
            _assert_refused(space)
        answers.add(bt1)
    assert answers == {True, False}


def _random_module(p, ne, rng):
    """A seeded random monomial module: F matches each piece with the
    other at random, with weights in {+-1, +-p}, V completes it by
    F V = V F = p, and the pairing is a random alternating +-1 matching."""
    dim = 2 * ne
    f_map, v_map, pair = [None] * dim, [None] * dim, [None] * dim
    for first, other in ((range(ne), range(ne, dim)),
                         (range(ne, dim), range(ne))):
        for j, i in zip(first, rng.sample(other, ne)):
            w = rng.choice((1, -1, p, -p))
            f_map[j], v_map[i] = (i, w), (j, p // w)
    for j, k in zip(range(ne), rng.sample(range(ne, dim), ne)):
        s = rng.choice((1, -1))
        pair[j], pair[k] = (k, s), (j, -s)
    return DieudonneModuleZ(p=p, ne=ne, f_map=f_map, v_map=v_map, pair=pair)


def test_arrow_signature_and_bt1_match_the_reduction():
    # Read off the arrows against the eliminations of the reduction over
    # F_{p^2}: every model with n <= MAX_N, each of which `dd models
    # --format pretty` can print, and 1200 random monomial modules, which
    # reach both BT1 outcomes.  The signature is the earlier V-kernel
    # route's on every reduction, and the library's on the BT1 ones; the
    # others get NotBT1Error from signature and fingerprint.
    models = [integral_model(n, r, p) for p in PRIMES
              for n in range(1, MAX_N + 1) for r in range(n + 1)]
    rng = random.Random(27)
    randoms = [_random_module(p, rng.randint(1, 4), rng)
               for p in PRIMES for _ in range(400)]
    flags = set()
    for kind, modules in (("model", models), ("random", randoms)):
        for module in modules:
            space = module.reduction()
            got = module.signature_and_bt1()
            assert got == (ref_signature(space), check_bt1(space)), module
            if got[1]:
                assert signature(space) == got[0], module
            else:
                _assert_refused(space)
            flags.add((kind, got[1]))
    assert flags == {("model", True), ("random", True), ("random", False)}


def test_classify_ranks_each_block_once(monkeypatch, capsys):
    # Every elimination of the whole classification, the closure included,
    # is recorded; each of F_e and F_ebar, as itself or as its transpose,
    # is eliminated exactly once, and V_e and V_ebar never, as on a BT1
    # space Ker V is read off Im F.  A space that breaks the pairing law
    # gets NotBT1Error from its signature and its fingerprint and
    # eliminates no block: check_bt1 decides on the law first.  The
    # ``dd models --format pretty`` path reads the model's arrows and
    # eliminates nothing.
    space = random_basechange(model_space(5, 2, 3), 11)
    dieudonne._model_fingerprints(5)  # built beforehand
    names = ("f_e2ebar", "f_ebar2e", "v_e2ebar", "v_ebar2e")
    eliminated = []

    def counts(space):
        forms = {name: {getattr(space, name),
                        mat_transpose(getattr(space, name))} for name in names}
        assert len(set().union(*forms.values())) == 8  # one block per form
        return {name: sum(rows in block for rows in eliminated)
                for name, block in forms.items()}

    for name in ("rref", "kernel_basis", "rank", "mat_inv"):
        def counting(fld, rows, *rest, real=getattr(dieudonne, name)):
            rows = tuple(map(tuple, rows))
            eliminated.append(rows)
            return real(fld, rows, *rest)

        monkeypatch.setattr(dieudonne, name, counting)
    assert classify_type(space, 5) == 2
    assert counts(space) == {"f_e2ebar": 1, "f_ebar2e": 1,
                             "v_e2ebar": 0, "v_ebar2e": 0}
    assert len(eliminated) > 2  # the closure's own nodes were eliminated too
    eliminated.clear()
    fld, gram = space.field, [list(row) for row in space.gram]
    gram[0][0] = fld.add(gram[0][0], 1)
    lawless = dataclasses.replace(space, gram=gram)
    assert not check_bt1(lawless)
    for gated in (signature, fingerprint):
        with pytest.raises(NotBT1Error, match="the pairing law fails"):
            gated(lawless)
    assert counts(lawless) == dict.fromkeys(names, 0)
    eliminated.clear()
    assert main(["dd", "models", "--n", "5", "--p", "3", "--r", "3",
                 "--format", "pretty"]) == 0
    assert capsys.readouterr().out == "r=3: signature=(4, 1) bt1=True\n"
    assert eliminated == []


def test_check_bt1_ranks_match_subspace_equalities_on_base_changed_models():
    for p in PRIMES:
        for n in (1, 2, 3, 5):
            for r in range(1, n + 1):
                for seed in range(3):
                    space = random_basechange(model_space(n, r, p), 7 * seed + r)
                    assert _bt1_equalities(space) == ((True, True),) * 2
                    assert check_bt1(space)


def _fingerprint_or_refusal(space):
    """fingerprint(space) if the space is BT1, else None, after checking
    that signature and fingerprint refuse it."""
    if check_bt1(space):
        return fingerprint(space)
    _assert_refused(space)
    return None


def test_fingerprint_matches_intersection_reference():
    # On the BT1 spaces; the random ones, mostly not BT1, are refused.
    rng = random.Random(58)
    compared = 0
    for p in PRIMES:
        for k in (1, 2, 3, 4, 5):
            for _ in range(12):
                space = _random_space(p, k, rng)
                got = _fingerprint_or_refusal(space)
                if got is not None:
                    assert got == _fingerprint_by_intersections(space)
                    compared += 1
        for n, r in ((3, 1), (3, 2), (5, 4), (5, 5)):
            space = random_basechange(model_space(n, r, p), n * r)
            assert fingerprint(space) == _fingerprint_by_intersections(space)
        for n, r, m, s in ((1, 1, 2, 2), (3, 2, 2, 1), (2, 0, 3, 3)):
            space = random_basechange(ref_direct_sum(
                integral_model(n, r, p).reduction(), model_space(m, s, p)),
                n + m)
            assert fingerprint(space) == _fingerprint_by_intersections(space)
            compared += 1
    assert compared >= 9


def _ranked_space(p, k, f_rank, v_rank, rng):
    """A random space with both pieces of dimension k whose conjugate-piece
    F and V have ranks f_rank and v_rank, usually not BT1.

    F_ebar and V_ebar are diagonal with nonzero entries on index sets A
    and B; V_e and F_e get random entries on the rows and columns outside
    A and B, so F V = V F = 0.  The gram is a random invertible matrix,
    and a random base change then fills in the zeros."""
    fld = gfp2(p)
    a, b = set(rng.sample(range(k), f_rank)), set(rng.sample(range(k), v_rank))

    def diagonal(on):
        return tuple(tuple(rng.randrange(1, fld.size) if i == j and i in on
                           else 0 for j in range(k)) for i in range(k))

    def outside(off):
        return tuple(tuple(rng.randrange(fld.size)
                           if i not in off and j not in off else 0
                           for j in range(k)) for i in range(k))

    space = DieudonneSpace(p=p, ne=k, f_ebar2e=diagonal(a),
                           v_e2ebar=outside(a), v_ebar2e=diagonal(b),
                           f_e2ebar=outside(b),
                           gram=_random_invertible(fld, k, rng)[0])
    frames = _random_invertible(fld, k, rng), _random_invertible(fld, k, rng)
    return basechange([space], *frames)[0]


def _conjugate_ranks(space):
    """(rank F, rank V) out of the conjugate piece, each from an
    elimination of its own."""
    fld = space.field
    return len(rref(fld, space.f_ebar2e)), len(rref(fld, space.v_ebar2e))


def test_rank_one_steps_match_the_reference_closure():
    # Conjugate-piece F and V of rank 0, 1 and 2, in every combination,
    # mostly not BT1, which fingerprint refuses; and BT1 spaces of rank 0
    # (supersingular), 1 (the models) and 2 (sums of two models), all
    # moved by a random base change.
    rng = random.Random(29)
    covered = set()
    for p in PRIMES:
        spaces = [_ranked_space(p, k, f_rank, v_rank, rng)
                  for k in (2, 3, 4, 5) for f_rank in (0, 1, 2)
                  for v_rank in (0, 1, 2) for _ in range(2)]
        spaces += [random_basechange(integral_model(n, 0, p).reduction(), n)
                   for n in (2, 3, 4)]
        spaces += [random_basechange(model_space(n, r, p), 7 * n + r)
                   for n in (3, 4, 5) for r in range(1, n + 1)]
        spaces += [random_basechange(ref_direct_sum(model_space(n, r, p),
                                                    model_space(m, s, p)), n + m)
                   for n, r, m, s in ((1, 1, 2, 2), (2, 1, 2, 2), (3, 2, 2, 1),
                                      (3, 3, 2, 2))]
        for space in spaces:
            got = _fingerprint_or_refusal(space)
            assert got in (None, ref_fingerprint(space)), space
            covered.add((*_conjugate_ranks(space), got is not None))
    assert {c[:2] for c in covered} == set(itertools.product((0, 1, 2),
                                                             repeat=2))
    for ranks in ((0, 0), (1, 1), (2, 2)):
        assert (*ranks, True) in covered and (*ranks, False) in covered


def test_the_pairing_law_makes_v_the_adjoint_of_f():
    # The lemma behind check_bt1, against V's own eliminations: wherever
    # the pairing law holds, rank V_g = rank F_g; on a BT1 space the
    # eliminated Ker V_(1-g) is Im F_g, the same reduced basis, so the
    # signature read off F is the V-kernel route's; a space that keeps
    # the law but is not BT1 gets NotBT1Error from it and from the
    # fingerprint.  Over the random suites, moved models (supersingular
    # ones included), direct sums and F = V = 0.
    rng = random.Random(34)
    zero = ((0,) * 3,) * 3
    spaces = []
    for p in PRIMES:
        spaces += [_random_space(p, k, rng) for k in (1, 2, 3, 4)
                   for _ in range(20)]
        spaces += [_ranked_space(p, k, f_rank, v_rank, rng) for k in (2, 3, 4)
                   for f_rank in (0, 1, 2) for v_rank in (0, 1, 2)]
        spaces += [random_basechange(integral_model(n, r, p).reduction(),
                                     n + r)
                   for n in (1, 2, 3, 5) for r in range(n + 1)]
        spaces += [random_basechange(ref_direct_sum(model_space(n, r, p),
                                                    model_space(m, s, p)), n + m)
                   for n, r, m, s in ((1, 1, 2, 2), (3, 2, 2, 1))]
        spaces.append(DieudonneSpace(
            p=p, ne=3, f_e2ebar=zero, f_ebar2e=zero, v_e2ebar=zero,
            v_ebar2e=zero, gram=_random_invertible(gfp2(p), 3, rng)[0]))
    flags = {True: 0, False: 0}
    for space in filter(pairing_law_holds, spaces):
        fld, n, kernels = space.field, space.ne, ref_v_kernels(space)
        images = tuple(rref(fld, mat_transpose(space.f_matrix(g)))
                       for g in (0, 1))
        assert [n - len(k) for k in kernels] == list(map(len, images)), space
        if check_bt1(space):
            assert kernels == images[::-1] == space._images[::-1], space
            assert signature(space) == ref_signature(space) \
                == (len(kernels[1]), len(kernels[0]))
        else:
            _assert_refused(space)
        flags[check_bt1(space)] += 1
    assert flags[True] >= 40 and flags[False] >= 20, flags


def test_a_map_of_rank_at_most_one_gives_no_new_node():
    # Why fingerprint expands no node through such a map: through the
    # general route, the V-preimage of any subspace under V of rank <= 1
    # is Ker V or the whole piece, and the F-image under F of rank <= 1 is
    # 0 or F(piece), all four successors of the start nodes.  Subspaces
    # are drawn with and without V's image line, and inside and outside
    # Ker F, so that each map gives both answers.
    rng = random.Random(30)
    outcomes = set()
    for p, k in itertools.product(PRIMES, (2, 3, 4)):
        for f_rank, v_rank in itertools.product((0, 1), repeat=2):
            space = _ranked_space(p, k, f_rank, v_rank, rng)
            fld, images = space.field, space._images
            kernels = ref_v_kernels(space)
            for grade, _ in itertools.product((0, 1), range(6)):
                src = 1 - grade
                v_cols = [c for c in zip(*space.v_matrix(src)) if any(c)]
                rows = [tuple(rng.randrange(fld.size) for _ in range(k))
                        for _ in range(rng.randint(0, k - 1))]
                rows += rng.sample(v_cols, min(len(v_cols), rng.randint(0, 1)))
                ker_f = _semilinear_kernel(fld, space.f_matrix(grade), k)
                for basis in (rref(fld, rows), ker_f[:rng.randint(1, k)]):
                    ann = annihilator_rows(fld, basis, k)
                    pre = mat_frob(fld, kernel_basis(
                        fld, mat_mul(fld, ann, space.v_matrix(src)), k))
                    img = rref(fld, mat_mul(fld, mat_frob(fld, basis),
                                            mat_transpose(space.f_matrix(grade))))
                    if len(kernels[src]) >= k - 1:
                        assert pre in (kernels[src], identity_mat(k))
                        outcomes.add(("V", k - len(kernels[src]),
                                      pre == kernels[src]))
                    if len(images[grade]) <= 1:
                        assert img in ((), images[grade])
                        outcomes.add(("F", len(images[grade]), img == ()))
    assert outcomes >= {("V", 1, True), ("V", 1, False), ("F", 1, True),
                        ("F", 1, False)}


@pytest.mark.parametrize("p", PRIMES)
def test_fingerprint_of_every_model_to_7_matches_the_reference(p):
    # Every model with n <= 7, supersingular (r = 0) included, as reduced
    # and after a base change.
    for n in range(1, 8):
        for r in range(n + 1):
            model = integral_model(n, r, p).reduction()
            for space in (model, random_basechange(model, 13 * n + r)):
                assert fingerprint(space) == ref_fingerprint(space), (n, r)


def _f_e_only_spaces(p, n, rng):
    """Valid spaces that are not BT1, moved by a frame: gram I, F_ebar = V
    = 0 and F_e with its first k rows random, k = 0..n, so F = V = 0 at
    k = 0.  V = 0 gives F V = V F = 0, and Im F = Ker V fails."""
    fld, zero = gfp2(p), ((0,) * n,) * n
    return [random_basechange(DieudonneSpace(
                p=p, ne=n, f_e2ebar=tuple(
                    tuple(rng.randrange(fld.size) for _ in range(n))
                    if i < k else (0,) * n for i in range(n)),
                f_ebar2e=zero, v_e2ebar=zero, v_ebar2e=zero,
                gram=identity_mat(n)), rng.randrange(1000))
            for k in range(n + 1)]


def test_closure_nodes_of_each_piece_form_a_flag(monkeypatch):
    # The theorem that makes the closure's worklist need no bound: on every
    # space built here, the closure's nodes in each piece are totally
    # ordered by inclusion, so a piece holds at most n + 1 of them.  The
    # proof uses only V F = 0, which every valid space has, so it is
    # checked on BT1 spaces through fingerprint's _closure (moved models
    # of every type with n <= 7, the supersingular planes among them,
    # moved direct sums of two models, and the sampler's draws, which no
    # model built) and on valid spaces that are not BT1, which fingerprint
    # refuses, through ref_fingerprint's ref_closure (F = V = 0, F_e alone,
    # and random spaces with F and V both nonzero).  An e-piece node of
    # fingerprint is frob(X), and frob keeps inclusions.
    found = []

    def recording(real):
        def closure(start, successors):
            found.append(real(start, successors))
            return found[-1]
        return closure

    monkeypatch.setattr(dieudonne, "_closure", recording(dieudonne._closure))
    monkeypatch.setattr(reference, "ref_closure",
                        recording(reference.ref_closure))
    bt1 = [random_basechange(integral_model(n, r, p).reduction(), 5 * n + r)
           for p in PRIMES for n in range(1, 8) for r in range(n + 1)]
    bt1 += [random_basechange(ref_direct_sum(
                integral_model(n, r, p).reduction(),
                integral_model(m, s, p).reduction()), n + m + r)
            for p in PRIMES for n, r, m, s in ((1, 1, 2, 2), (3, 2, 2, 1),
                                               (2, 0, 3, 3), (3, 3, 4, 1))]
    bt1 += [space for p, n in BT1_DRAW_SIZES for space in _bt1_draws(p, n)]
    rng = random.Random(83)
    not_bt1 = [space for p, n in BT1_DRAW_SIZES
               for space in (*_f_e_only_spaces(p, n, rng),
                             *(_random_space(p, n, rng) for _ in range(10)))]
    for spaces, closure_of in ((bt1, fingerprint), (not_bt1, ref_fingerprint)):
        for space in spaces:
            assert check_bt1(space) == (closure_of is fingerprint)
            closure_of(space)
            fld, n = space.field, space.ne
            for g in (0, 1):
                flag = sorted((x for grade, x in found[-1] if grade == g),
                              key=len)
                assert len(flag) <= n + 1, space
                for small, big in zip(flag, flag[1:]):
                    assert len(small) < len(big), space
                    assert rref(fld, small + big) == big, space


# -- direct sums ---------------------------------------------------------------


def test_direct_sum_adds_signatures_and_dims():
    # The type-r model is B_r plus n - r planes: dims and signatures add.
    p = 5
    a = banded(3, p).reduction()
    b = ss(p).reduction()
    total = integral_model(4, 3, p).reduction()
    assert total == ref_direct_sum(a, b)
    assert total.ne == 4
    sig_a, sig_b = signature(a), signature(b)
    assert signature(total) == (sig_a[0] + sig_b[0], sig_a[1] + sig_b[1])
    assert check_bt1(total)


def test_nary_direct_sum_equals_pairwise_fold():
    # The one builder of B_r + (n - r) SS against the earlier assembly:
    # the pairwise block sum of B_r's reduction and n - r planes'.
    for p in (3, 5):
        for n in range(1, 8):
            for r in range(n + 1):
                pieces = [banded(r, p).reduction()] if r else []
                pieces += [ss(p).reduction()] * (n - r)
                folded = pieces[0]
                for piece in pieces[1:]:
                    folded = ref_direct_sum(folded, piece)
                assert integral_model(n, r, p).reduction() == folded, (n, r)
                if r:
                    assert model_space(n, r, p) == folded, (n, r)


@pytest.mark.parametrize("position", range(4))
def test_nary_direct_sum_refuses_a_prime_mismatch_anywhere(position):
    # Four planes over p = 3, the one at ``position`` carrying the weights
    # of the plane over p = 5: F V = 5 there, so the module is refused.
    planes, other = integral_model(4, 0, 3), integral_model(4, 0, 5)
    f_map, v_map = list(planes.f_map), list(planes.v_map)
    for b in (position, 4 + position):
        f_map[b], v_map[b] = other.f_map[b], other.v_map[b]
    with pytest.raises(ValueError, match="F V = V F = p fails"):
        DieudonneModuleZ(p=3, ne=4, f_map=f_map, v_map=v_map,
                         pair=planes.pair)


def test_model_space_json_is_unchanged():
    # sha256 of the compact JSON of every model with odd n <= 15 and
    # p in {3, 5, 7, 11, 47}, recorded with the n-ary sum of dense
    # reductions that the one builder replaced.  The models need no
    # F_{p^2} arithmetic, so a fresh field at p = 47 builds no addition
    # or multiplication table.
    gfp2.cache_clear()
    digest = hashlib.sha256()
    for p in (3, 5, 7, 11, 47):
        for n in range(3, 16, 2):
            for r in range(1, n + 1):
                digest.update(json.dumps(model_space(n, r, p).to_json(),
                                         separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "9ef0115f1fa09a7da219578cf38723d90a56dff922c0d7e50f61228eb64a419e")
    assert not {"_add", "_mul"} & vars(gfp2(47)).keys()


def test_model_reductions_equal_the_validated_spaces():
    # reduction() builds its space unchecked, as the arrows prove it
    # valid; the same fields validated as a new space are equal, for
    # every model with odd n <= 15, r in 0..n and p in {3, 5, 7, 11, 47}.
    # The F_{p^2} tables at p = 47 take about 355 MB, so they are dropped
    # afterwards.
    try:
        for p in (3, 5, 7, 11, 47):
            for n in range(3, 16, 2):
                for r in range(n + 1):
                    space = integral_model(n, r, p).reduction()
                    assert space == dataclasses.replace(space), (n, r, p)
    finally:
        gfp2.cache_clear()


# -- base change ---------------------------------------------------------------


def test_basechange_with_identity_is_identity():
    space = model_space(5, 3, 3)
    unit = identity_mat(5)
    assert basechange([space], (unit, unit), (unit, unit))[0] == space


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
    spaces.append(ss(5).reduction())
    for seed in range(60):
        space = spaces[seed % len(spaces)]
        assert random_basechange(space, seed) \
            == ref_random_basechange(space, seed), seed


def test_basechange_checks_the_inverses_it_is_given():
    fld = gfp2(5)
    for n in (3, 5):
        space = model_space(n, 2, 5)
        frames = (p_mat, p_inv), (q_mat, q_inv) = random_frames(fld, n, 4)
        moved = basechange([space], *frames)[0]
        assert moved == random_basechange(space, 4)
        assert moved == basechange([space], (p_mat, mat_inv(fld, p_mat)),
                                   (q_mat, mat_inv(fld, q_mat)))[0]
        # 2 P^-1 is no inverse, yet the blocks it gives are a valid space
        # that passes check_bt1: validating the result, as the earlier
        # basechange did, lets it through, and the frame certificate does
        # not.
        scaled = tuple(tuple(fld.mul(2, x) for x in row) for row in p_inv)
        assert check_bt1(ref_basechange(space, p_mat, q_mat, scaled, q_inv))
        wrong = ((scaled, q_inv),
                 (p_inv, p_inv),  # swapped: Q's inverse is P's
                 (p_inv, q_inv + q_inv[:1]),  # Q Q^-1 = I, Q^-1 (n+1) x n
                 (p_inv, tuple(row + (0,) for row in q_inv)))  # n x (n+1)
        for p_given, q_given in wrong:
            with pytest.raises(ValueError, match="given inverse is not I"):
                basechange([space], (p_mat, p_given), (q_mat, q_given))


def test_basechange_of_several_spaces_moves_each_as_alone():
    # One certificate of the frames serves every space: the list result is
    # the spaces moved one at a time, in order, and the earlier route's.
    for n, p in ((3, 3), (5, 7)):
        spaces = [model_space(n, r, p) for r in range(1, n + 1)]
        spaces.append(random_basechange(spaces[0], n))
        frames = (p_mat, p_inv), (q_mat, q_inv) = random_frames(
            gfp2(p), n, 17 * n)
        moved = basechange(spaces, *frames)
        assert moved == [basechange([space], *frames)[0] for space in spaces]
        assert moved == [ref_basechange(space, p_mat, q_mat, p_inv, q_inv)
                         for space in spaces]


@pytest.mark.parametrize("n", (3, 5, 7))
def test_batched_basechange_equals_the_reference_space_by_space(n):
    # One product per frame side over the whole list: for lists of 1 to n
    # spaces, models and random spaces mixed, the result is the earlier
    # route's, one space at a time, in order.
    rng = random.Random(290 + n)
    for p in PRIMES:
        pool = [model_space(n, r, p) for r in range(1, n + 1)]
        pool += [_random_space(p, n, rng) for _ in range(2)]
        pool += [_ranked_space(p, n, 2, 1, rng)]
        frames = (p_mat, p_inv), (q_mat, q_inv) = random_frames(
            gfp2(p), n, 31 * n + p)
        for count in range(1, n + 1):
            spaces = rng.sample(pool, count)
            assert basechange(spaces, *frames) == [
                ref_basechange(space, p_mat, q_mat, p_inv, q_inv)
                for space in spaces], (p, count)


def test_basechange_refuses_no_space_and_mixed_spaces():
    fld = gfp2(5)
    frames = (p_mat, p_inv), q_frame = random_frames(fld, 3, 4)
    space = model_space(3, 2, 5)
    # No space gives no field to certify the frames in.
    with pytest.raises(ValueError, match="given inverse is not I"):
        basechange([], *frames)
    wider, other_p = model_space(5, 2, 5), model_space(3, 2, 7)
    for spaces in ([space, wider], [wider, space], [wider],
                   [space, other_p], [other_p, space]):
        with pytest.raises(ValueError, match="share one p and have ne = 3"):
            basechange(spaces, *frames)
    scaled = tuple(tuple(fld.mul(2, x) for x in row) for row in p_inv)
    with pytest.raises(ValueError, match="given inverse is not I"):
        basechange([space, space], (p_mat, scaled), q_frame)


def _outcome(classify, space, n):
    """classify(space, n), or the class and message of what it raised."""
    try:
        return classify(space, n)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_certified_basechange_and_classification_match_the_earlier_route(n):
    # Models of every type, the n supersingular planes (signature (n, 0))
    # and random spaces (mostly not BT1), each moved by seeded frames: the
    # certified base change equals the same blocks validated as a new space
    # and the earlier base change, and classify_type gives the earlier
    # stage order's type, or its exception class and message, at n and at
    # a wrong n.
    rng = random.Random(n)
    outcomes = set()
    for p in (3, 5, 7):
        spaces = [model_space(n, r, p) for r in range(1, n + 1)]
        spaces += [integral_model(n, 0, p).reduction()]
        spaces += [_random_space(p, n, rng) for _ in range(3)]
        for seed in range(3):
            frames = (p_mat, p_inv), (q_mat, q_inv) = random_frames(
                gfp2(p), n, 1009 * n + 31 * p + seed)
            for space in spaces:
                moved = basechange([space], *frames)[0]
                assert moved == dataclasses.replace(moved) \
                    == ref_basechange(space, p_mat, q_mat, p_inv, q_inv)
                for m in (n, n + 2):
                    got = _outcome(classify_type, moved, m)
                    assert got == _outcome(ref_classify_type, moved, m)
                    outcomes.add(got if isinstance(got, int)
                                 else got[1].split()[0])
    assert outcomes == {*range(1, n + 1), "graded", "Im", "signature"}


# -- classification ------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(3, 3), (5, 3), (7, 3), (9, 3), (3, 5), (5, 5),
                                 (7, 5), (9, 5)])
def test_model_fingerprints_pairwise_distinct(n, p):
    prints = [fingerprint(model_space(n, r, p)) for r in range(1, n + 1)]
    assert len(set(prints)) == n


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_coordinate_fingerprint_matches_row_reduced_closure(p):
    # The index-set model fingerprints against the row-reduced closure
    # of every model with n <= 16, odd and even, and at p = 3 also of
    # every model with odd n <= 25.
    for n in [*range(1, 17), *(range(17, 26, 2) if p == 3 else ())]:
        for r, by_index in _model_fingerprints(n):
            assert by_index == fingerprint(model_space(n, r, p)), (n, r)


def test_index_closure_fingerprints_pairwise_distinct_to_99():
    # The index closure of _model_fingerprints tells the n types apart
    # for every odd n < 100, and no index closure has more than 2n + 2
    # nodes (one triple per node).
    for n in range(1, 100, 2):
        types, prints = zip(*_model_fingerprints(n))
        assert types == tuple(range(1, n + 1)) and len(set(prints)) == n, n
        assert all(len(fp) <= 2 * n + 2 for fp in prints), n


BT1_DRAW_SIZES = tuple(itertools.product((3, 5), (3, 5, 7)))


@lru_cache(maxsize=None)
def _bt1_draws(p, n):
    """100 seeded draws of the sampler at (p, n), which two tests read."""
    rng = random.Random(f"bt1:{p}:{n}")
    return tuple(ref_bt1_space(gfp2(p), n, rng) for _ in range(100))


def test_bt1_draws_classify_and_the_open_row_is_the_mode():
    # Spaces from the whole BT1 locus of signature (n - 1, 1) with gram I,
    # not moved models.  Every draw classifies, as the reference does.
    # At p = 3 the most frequent type is the open stratum, the row of
    # dimension n - 1; the reference reads the same _model_fingerprints, so
    # only the mode tells two types swapped there.  No other frequency is
    # asserted, as only the mode is robust at 100 draws.  The seeds and the
    # sizes are fixed here.
    for p, n in BT1_DRAW_SIZES:
        counts = Counter()
        for space in _bt1_draws(p, n):
            r = classify_type(space, n)
            assert r == ref_classify_type(space, n), (p, n)
            counts[r] += 1
        if p == 3:
            open_row, = (row.r for row in strata_dims(n) if row.dim == n - 1)
            assert counts.most_common(1)[0][0] == open_row, (n, counts)


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
        raise AssertionError("a model space was built")

    monkeypatch.setattr(dieudonne, "model_space", refuse)
    monkeypatch.setattr(DieudonneModuleZ, "reduction", refuse)
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
    space = integral_model(n, 0, 3).reduction()
    with pytest.raises(NotBT1Error):
        classify_type(space, n)


def test_classify_rejects_wrong_dimensions():
    with pytest.raises(NotBT1Error):
        classify_type(model_space(3, 1, 3), 5)


def test_classify_rejects_non_bt1():
    space = DieudonneSpace(p=3, ne=1,
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
            # monomial: one nonzero per row and column, like a model's F
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
    assert newton_slopes(ss(p)).entries == ((Fraction(1, 2), 2),)
    for d in range(1, 13, 2):
        assert newton_slopes(banded(d, p)).entries == ((Fraction(1, 2), 2 * d),)
    for d in range(2, 13, 2):
        assert newton_slopes(banded(d, p)).entries == (
            (Fraction(1, 2) - Fraction(1, d), d),
            (Fraction(1, 2) + Fraction(1, d), d))


def _reference_slopes(module):
    return SlopeMultiset.from_pairs(
        padic_newton_slopes(char_poly(dense_view(module)[0]), module.p))


@pytest.mark.parametrize("p", PRIMES)
def test_newton_slopes_match_the_newton_polygon_of_char_poly(p):
    assert newton_slopes(ss(p)) == _reference_slopes(ss(p))
    for d in range(1, 17):
        assert newton_slopes(banded(d, p)) == _reference_slopes(banded(d, p))
    for n in range(1, 7):
        for r in range(n + 1):
            module = integral_model(n, r, p)
            assert newton_slopes(module) == _reference_slopes(module), (n, r)


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


def test_isocrystal_shape_is_one_object_per_n_and_r():
    isocrystal_shape.cache_clear()
    first = isocrystal_shape(7, 2)
    assert isocrystal_shape(7, 2) is first
    assert isocrystal_shape(7, 1) is not first
    isocrystal_shape.cache_clear()
    assert isocrystal_shape(7, 2) == first
    assert isocrystal_shape(7, 2) is not first
    # The memo keys on types too: a bool or float equal to a cached int
    # key misses the cache and is refused.
    isocrystal_shape(7, 1)
    for n, r in ((7, True), (7, 1.0), (7.0, 2)):
        with pytest.raises(ValueError):
            isocrystal_shape(n, r)


def test_shapes_and_strata_refuse_a_bool_or_float_argument():
    for call in (lambda: isocrystal_shape(5, True),
                 lambda: isocrystal_shape(5.0, 1),
                 lambda: isocrystal_shape(5, 1.0), lambda: strata_dims(5.0),
                 lambda: strata_dims(True)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError) as info:
        strata_dims(5.0)
    assert str(info.value) == "n must be odd and >= 3, got 5.0"
    with pytest.raises(ValueError) as info:
        isocrystal_shape(5, True)
    assert str(info.value) == "r=True out of range 0..2"


def test_strata_dims_equals_a_cache_cleared_build():
    for n in range(3, 16, 2):
        for r in range((n - 1) // 2 + 1):
            isocrystal_shape(n, r)
        warm = strata_dims(n)
        isocrystal_shape.cache_clear()
        assert strata_dims(n) == warm
        half = SlopeMultiset.from_pairs([(Fraction(1, 2), 2 * n)])
        assert all(row.slopes == half for row in warm if row.r % 2 == 1)


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
            assert newton_slopes(banded(d, p)) == expected


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


def test_strata_odd_rows_share_the_type_0_shape():
    # Every odd row reads its {1/2 x 2n} off the memoized shape of type 0,
    # the same object, not an equal one built per table.
    for n in range(3, 16, 2):
        supersingular = isocrystal_shape(n, 0).slopes
        for row in strata_dims(n):
            if row.r % 2 == 1:
                assert row.slopes is supersingular


@pytest.mark.parametrize("p", (3, 5))
def test_strata_slopes_are_the_newton_slopes_of_the_type_r_model(p):
    # The Ekedahl-Oort stratum of type r lies in the Newton stratum of its
    # model B_r + (n - r) SS.
    for n in range(3, 100, 2):
        for row in strata_dims(n):
            assert row.slopes == newton_slopes(integral_model(n, row.r, p)), \
                (n, row.r)
