"""Replay a small grid of CLI calls in-process against recorded bytes.

Every command and format is called over a few sizes, primes and types,
valid and invalid, and each call's exit code, stdout sha256 and stderr
must match ``tests/data/cli_grid.json``.  The fixture path is written as
``{fixture}`` there and substituted at run time.  To accept a change of
output on purpose, re-record the grid from the root of a checkout:

    PYTHONPATH=src python tests/test_cli_grid.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from guhecke.cli import fixture_path, main

GRID = Path(__file__).resolve().parent / "data" / "cli_grid.json"
FORMATS = ("json", "csv", "pretty")
FIXTURE = "{fixture}"


def grid_argvs() -> list[list[str]]:
    out = [["hecke", "--n", str(n), "--format", fmt]
           for n in (3, 4, 5, 7, 17) for fmt in FORMATS]
    for n in (3, 5):
        for p in (3, 4, 5):
            for r in (None, 0, 1, 2, n):
                r_args = [] if r is None else ["--r", str(r)]
                out += [["dd", "models", "--n", str(n), "--p", str(p),
                         *r_args, "--format", fmt] for fmt in FORMATS]
    out += [["dd", "slopes", "--d", str(d), "--p", str(p), "--format", fmt]
            for d in (0, 1, 2, 3, 4, 6) for p in (3, 5, 9) for fmt in FORMATS]
    for n in (3, 5, 6, 7, 8):
        out += [["dd", "isoc", "--n", str(n), "--r", str(r), "--format", fmt]
                for r in range(-1, (n - 1) // 2 + 2) for fmt in FORMATS]
        out += [["dd", "strata", "--n", str(n), "--format", fmt]
                for fmt in FORMATS]
    out += [["dd", "classify", "--input", FIXTURE, "--n", str(n)]
            for n in (3, 4, 5)]
    out.append(["dd", "classify", "--input", "no-such-input.json",
                "--n", "5"])
    return out


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout sha256 and stderr of one in-process CLI call."""
    fixture = str(fixture_path())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([fixture if a == FIXTURE else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


# Empty only while the grid is first recorded; the coverage test fails then.
RECORDED = json.loads(GRID.read_text(encoding="utf-8")) if GRID.exists() else {}


def test_grid_covers_every_recorded_call():
    assert sorted(RECORDED) == sorted(" ".join(a) for a in grid_argvs())


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_cli_call_matches_recorded_bytes(key):
    assert run_case(key.split()) == RECORDED[key]


if __name__ == "__main__":
    GRID.parent.mkdir(exist_ok=True)
    cases = {" ".join(argv): run_case(argv) for argv in grid_argvs()}
    GRID.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{len(cases)} calls recorded in {GRID}", file=sys.stderr)
