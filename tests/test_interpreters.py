"""The ``requires-python`` floor, checked on the oldest interpreter it
admits.

The rest of the suite runs under one interpreter.  When the floor's
interpreter (``python3.10`` for ``>=3.10``) is on PATH, a dozen calls of
the recorded CLI grid (``tests/data/cli_grid.json``) run through it as
``python3.10 -m guhecke`` with this checkout's src on PYTHONPATH: every
command and format, and a refused call each for exit 1 and exit 3.  Each
must give its recorded exit code and stdout sha256.  The child gets
``PYENV_VERSION`` set to the floor, which selects it when ``python3.10``
is a pyenv shim and is ignored otherwise.  Without a working interpreter
the test is skipped.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from guhecke.cli import fixture_path
from test_cli import src_env
from test_cli_grid import FIXTURE, RECORDED

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
FLOOR = re.search(r'requires-python = ">=(\d+\.\d+)"',
                  PYPROJECT.read_text(encoding="utf-8")).group(1)
INTERPRETER = f"python{FLOOR}"

CASES = (
    "hecke --n 5 --format json",
    "hecke --n 3 --format pretty",
    "hecke --n 5 --format csv",  # exit 1: no csv for hecke
    "dd models --n 5 --p 5 --r 2 --format json",
    "dd models --n 3 --p 3 --format pretty",
    "dd slopes --d 4 --p 5 --format json",
    "dd slopes --d 6 --p 3 --format csv",
    "dd isoc --n 7 --r 2 --format pretty",
    "dd strata --n 5 --format csv",
    "dd strata --n 7 --format json",
    "dd classify --input {fixture} --n 5",
    "dd classify --input {fixture} --n 3",  # exit 3: wrong dimensions
)


def floor_env() -> dict:
    return dict(src_env(), PYENV_VERSION=FLOOR)


def floor_interpreter() -> str | None:
    """The floor's interpreter, if it is on PATH and runs as that version."""
    exe = shutil.which(INTERPRETER)
    if exe is None:
        return None
    version = tuple(map(int, FLOOR.split(".")))
    probe = subprocess.run(
        [exe, "-c", f"import sys; sys.exit(sys.version_info[:2] != {version})"],
        capture_output=True, env=floor_env())
    return exe if probe.returncode == 0 else None


def test_cases_are_recorded_and_cover_every_command_and_exit():
    assert set(CASES) <= set(RECORDED)
    assert {case.split(" --")[0] for case in CASES} == {
        "hecke", "dd models", "dd slopes", "dd isoc", "dd strata",
        "dd classify"}
    assert {case.split()[-1] for case in CASES} >= {"json", "csv", "pretty"}
    assert {RECORDED[case]["exit"] for case in CASES} == {0, 1, 3}


def test_grid_calls_match_under_the_oldest_supported_interpreter():
    exe = floor_interpreter()
    if exe is None:
        pytest.skip(f"no working {INTERPRETER} on PATH")
    fixture = str(fixture_path())
    for case in CASES:
        argv = [fixture if a == FIXTURE else a for a in case.split()]
        proc = subprocess.run([exe, "-m", "guhecke", *argv],
                              capture_output=True, env=floor_env(),
                              timeout=120)
        got = {"exit": proc.returncode,
               "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        want = RECORDED[case]
        assert got == {"exit": want["exit"], "sha256": want["sha256"]}, case
