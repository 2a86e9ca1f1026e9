"""Acceptance gate: every registered criterion must pass, exactly.

Runs each criterion from the registry at its stated scope and prints one
pass/fail line per criterion (visible with ``pytest -s`` or on failure).
"""

import subprocess
import sys

import pytest

import guhecke.acceptance as acceptance
from guhecke.acceptance import CRITERIA
from guhecke.dieudonne import classify_type, model_space, random_basechange
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
    # to all n models; each input must still be random_basechange's.
    seen = []

    def recording_classify(space, n):
        seen.append(space)
        return classify_type(space, n)

    monkeypatch.setattr(acceptance, "classify_type", recording_classify)
    monkeypatch.setattr(acceptance, "CLASSIFY_SEEDS", 3)
    seed = 2
    acceptance.classification_roundtrip(seed)
    expected = [random_basechange(model_space(n, r, p), seed * 100_003 + s)
                for n in acceptance.CLASSIFY_NS
                for p in acceptance.CLASSIFY_PRIMES
                for r in range(1, n + 1) for s in range(3)]
    assert seen == expected
