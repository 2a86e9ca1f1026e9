"""Acceptance gate: every registered criterion must pass, exactly.

Runs each criterion from the registry at its stated scope and prints one
pass/fail line per criterion (visible with ``pytest -s`` or on failure).
"""

import subprocess
import sys

import pytest

import guhecke.acceptance as acceptance
import guhecke.dieudonne as dieudonne
import guhecke.hecke as hecke
from guhecke.acceptance import CRITERIA
from guhecke.dieudonne import (classify_type, integral_model,
                               isocrystal_shape, model_space, random_basechange)
from test_cli import src_env


def test_registry_is_complete():
    assert len(CRITERIA) == 10
    assert [c.cid for c in CRITERIA] == list(range(1, 11))


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.name for c in CRITERIA])
def test_criterion(criterion):
    try:
        detail = criterion.run(0)
    except Exception as exc:
        print(f"FAIL criterion {criterion.cid}/10 {criterion.name}: {exc!r}")
        raise
    print(f"PASS criterion {criterion.cid}/10 {criterion.name}: {detail}")


def test_a_failed_check_raises_under_python_O():
    # python -O strips assert statements; the criteria's checks must not.
    script = "\n".join([
        "import guhecke.acceptance as acceptance",
        "print(__debug__)",
        "acceptance.check_sigma_invariance = lambda poly: False",
        "try:",
        "    acceptance.factorization_certificate()",
        "except AssertionError as exc:",
        "    print(repr(exc))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=src_env(),
                          check=True)
    assert proc.stdout == "False\nAssertionError('twist moves H or R at n=3')\n"


def test_roundtrip_shares_each_seed_draw_across_the_models(monkeypatch):
    # Criterion 8 draws its frames once per (n, p, seed) and applies them
    # to all n models, seeds outside and models inside, and at the first
    # seed to its negative control, the n supersingular planes, after the
    # models; each input must still be random_basechange's.
    seen = []

    def recording_classify(space, n):
        seen.append(space)
        return classify_type(space, n)

    monkeypatch.setattr(acceptance, "classify_type", recording_classify)
    monkeypatch.setattr(acceptance, "CLASSIFY_SEEDS", 3)
    seed = 2
    acceptance.classification_roundtrip(seed)
    expected = [random_basechange(space, seed * 100_003 + s)
                for n in acceptance.CLASSIFY_NS
                for p in acceptance.CLASSIFY_PRIMES
                for s in range(3)
                for space in [model_space(n, r, p) for r in range(1, n + 1)]
                + ([integral_model(n, 0, p).reduction()] if s == 0 else [])]
    assert seen == expected


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the
    one-element list holding the count."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_roundtrip_certifies_each_frame_pair_once(monkeypatch):
    # 3 dimensions x 2 primes x 20 seeds: one basechange per frame pair,
    # not one per model (600).
    calls = _counting(monkeypatch, acceptance, "basechange")
    detail = acceptance.classification_roundtrip(3)
    assert calls[0] == 120
    assert detail.startswith("600 seeded base changes classified back")


def test_weyl_criterion_builds_each_row_map_once_per_group(monkeypatch):
    # Criterion 2 checks the coefficients on the m generators of each of
    # n = 3, 5, 7, 9, then its near miss of H under the same generators,
    # and the pair certificate of each n checks c and the sum of the
    # paired roots under them in one call: 3 * (1 + 2 + 3 + 4).  The
    # whole groups (2 + 8 + 48 + 384 elements) took 462; one map per
    # coefficient was 8138.
    calls = _counting(monkeypatch, hecke, "row_permuter")
    detail = acceptance.weyl_invariance(0)
    assert calls[0] == 30
    assert detail.startswith("52 coefficients fixed")


def test_strata_table_reuses_the_audited_shapes(monkeypatch):
    # Criterion 9 builds the 1274 shapes (n odd to 99, r = 0..(n-1)/2);
    # criterion 10 reads every row's shape back from the memo.
    # paired_block_slopes runs once per execution of the shape's body.
    calls = _counting(monkeypatch, dieudonne, "paired_block_slopes")
    isocrystal_shape.cache_clear()
    acceptance.isocrystal_dimension_audit(0)
    assert calls[0] == 1274
    acceptance.strata_table(0)
    assert calls[0] == 1274
