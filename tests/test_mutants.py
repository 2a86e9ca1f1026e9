"""The mutant registry: each row is a deliberate fault in the library and
the acceptance criteria that must fail under it.

A mutant is applied in-process with ``monkeypatch`` and undone after its
test.  The criteria of its side of the library are run at seed 0, and the
set that fails must be exactly the row's.  Criteria 1-4 check the Hecke
side (``hecke``, ``laurent``, ``rootdatum``) and criteria 5-10 the
Dieudonne side (``dieudonne``, ``finitefield``), which reaches neither
``hecke`` nor ``rootdatum`` (``tests/test_import_graph.py``), so a mutant
of one side cannot move a criterion of the other, and running only its
side keeps the file well under two seconds.  Every criterion passes
unmutated (``tests/test_acceptance.py``).

Every always-true predicate is a row: ``check_weyl_invariance`` fails
criterion 2 through its near miss of H, ``check_sigma_invariance``
criterion 1 through its near miss of H for the twist, and ``check_bt1``
and ``pairing_law_holds`` criterion 7 through its two refused spaces.
A ``classify_type`` that skips its signature comparison fails criterion 8
through the supersingular planes, BT1 of signature (n, 0), which it must
refuse.  The matrix route of the determinant cross-check is a row too: a
``_mono_inv_t`` that returns its matrix unchanged fails criterion 3 alone.
The registry has 14 rows.
Not yet a row: the gates of the open ROADMAP items, each of which joins
the table with the criterion or certificate that checks it.
"""

import dataclasses
import sys

import pytest

import guhecke.dieudonne as dieudonne
import guhecke.hecke as hecke
import guhecke.rootdatum as rootdatum
from guhecke.acceptance import CRITERIA

HECKE_SIDE = (1, 2, 3, 4)
DIEUDONNE_SIDE = (5, 6, 7, 8, 9, 10)


def _replace(monkeypatch, home, name, make):
    """Replace home.name by make(original) in every guhecke module that
    holds the original, so callers that imported it by name see the
    mutant too."""
    original = getattr(home, name)
    mutant = make(original)
    for key, module in list(sys.modules.items()):
        if key.startswith("guhecke") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)


def _bump_q(row):
    """The monomial times q: q^(n-1) becomes q^n."""
    return (row[0] + 1, *row[1:])


def generators_without_reflection(monkeypatch):
    _replace(monkeypatch, rootdatum, "weyl_generators",
             lambda real: lambda n: real(n)[:-1])


def q_n_on_every_root(monkeypatch):
    # root_pairs and so H read the roots off hecke_roots.
    _replace(monkeypatch, hecke, "hecke_roots",
             lambda real: lambda n: [_bump_q(row) for row in real(n)])


def q_n_on_one_root(monkeypatch):
    def hecke_roots(real):
        def mutant(n):
            first, *rest = real(n)
            return [_bump_q(first), *rest]
        return mutant

    _replace(monkeypatch, hecke, "hecke_roots", hecke_roots)


def first_two_pairs_crossed(monkeypatch):
    # (c*y1, c/y2) and (c*y2, c/y1): the roots of H, in the same product,
    # but neither pair multiplies to c^2.  n = 3 has a single pair.
    def root_pairs(real):
        def mutant(n):
            center, pairs = real(n)
            if n >= 5:
                (a1, b1), (a2, b2), *rest = pairs
                pairs = [(a1, b2), (a2, b1), *rest]
            return center, pairs
        return mutant

    _replace(monkeypatch, hecke, "root_pairs", root_pairs)


def pairs_off_by_one(monkeypatch):
    # Root i paired with root n - i, not n + 1 - i (1-indexed): the last
    # root is dropped and c is paired with root m, so H changes too.
    def root_pairs(real):
        def mutant(n):
            roots = hecke.hecke_roots(n)
            m = (n - 1) // 2
            return roots[m], [(roots[i], roots[n - 2 - i]) for i in range(m)]
        return mutant

    _replace(monkeypatch, hecke, "root_pairs", root_pairs)


def hecke_generators_break_the_pairing(monkeypatch):
    # The transposition (1 2) added for n >= 5, in hecke's namespace only:
    # it moves the roots off the root set, so the pair certificate's flag
    # is false, while criterion 2 keeps the true generators.
    real = hecke.weyl_generators
    monkeypatch.setattr(hecke, "weyl_generators", lambda n: real(n) + (
        ((2, 1, *range(3, n + 1)),) if n >= 5 else ()))


def weyl_check_always_true(monkeypatch):
    _replace(monkeypatch, hecke, "check_weyl_invariance",
             lambda real: lambda polys, n, group: True)


def sigma_check_always_true(monkeypatch):
    _replace(monkeypatch, hecke, "check_sigma_invariance",
             lambda real: lambda poly: True)


def twist_without_x0_shift(monkeypatch):
    # x_i -> 1/x_{n+1-i} with x0 fixed, in hecke's namespace only:
    # rootdatum.norm_monomial keeps the true twist.
    monkeypatch.setattr(hecke, "twist_row", lambda row: (
        row[0], row[1], *[-e for e in row[:1:-1]]))


def inverse_transpose_skipped(monkeypatch):
    # transpose(A)^(-1) read as A on the matrix route: the determinant
    # cross-check's matrix value no longer matches the expansion.
    _replace(monkeypatch, hecke, "_mono_inv_t", lambda real: lambda a: a)


def bt1_check_always_true(monkeypatch):
    _replace(monkeypatch, dieudonne, "check_bt1",
             lambda real: lambda space: True)


def pairing_law_always_true(monkeypatch):
    # check_bt1 then decides on the F ranks alone.
    _replace(monkeypatch, dieudonne, "pairing_law_holds",
             lambda real: lambda space: True)


def classify_without_signature_check(monkeypatch):
    # signature reads (n - 1, 1) in dieudonne's namespace only, so
    # classify_type's comparison passes every BT1 space; criterion 5
    # keeps the true signature.
    monkeypatch.setattr(dieudonne, "signature",
                        lambda space: (space.ne - 1, 1))


def strata_rows_1_and_2_swapped(monkeypatch):
    def strata_dims(real):
        def mutant(n):
            one, two, *rest = real(n)
            return [dataclasses.replace(one, dim=two.dim),
                    dataclasses.replace(two, dim=one.dim), *rest]
        return mutant

    _replace(monkeypatch, dieudonne, "strata_dims", strata_dims)


MUTANTS = (
    (generators_without_reflection, HECKE_SIDE, {2}),
    (q_n_on_every_root, HECKE_SIDE, {3}),
    (q_n_on_one_root, HECKE_SIDE, {1, 2, 3}),
    (first_two_pairs_crossed, HECKE_SIDE, {1, 2}),
    (pairs_off_by_one, HECKE_SIDE, {1, 2, 3}),
    (twist_without_x0_shift, HECKE_SIDE, {1}),
    (hecke_generators_break_the_pairing, HECKE_SIDE, {1}),
    (weyl_check_always_true, HECKE_SIDE, {2}),
    (sigma_check_always_true, HECKE_SIDE, {1}),
    (inverse_transpose_skipped, HECKE_SIDE, {3}),
    (bt1_check_always_true, DIEUDONNE_SIDE, {7}),
    (pairing_law_always_true, DIEUDONNE_SIDE, {7}),
    (classify_without_signature_check, DIEUDONNE_SIDE, {8}),
    (strata_rows_1_and_2_swapped, DIEUDONNE_SIDE, {10}),
)


@pytest.mark.parametrize("mutate, side, fails", MUTANTS,
                         ids=[mutate.__name__ for mutate, _, _ in MUTANTS])
def test_mutant_fails_exactly_its_criteria(monkeypatch, mutate, side, fails):
    mutate(monkeypatch)
    failed = set()
    for criterion in CRITERIA:
        if criterion.cid in side:
            try:
                criterion.run(0)
            except Exception:
                failed.add(criterion.cid)
    assert failed == fails
