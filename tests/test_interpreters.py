"""The recorded CLI grid under every interpreter that CI runs.

The rest of the suite runs under one interpreter.  The versions come from
the matrix of ``.github/workflows/tier1.yml``, whose oldest must be the
``requires-python`` floor of ``pyproject.toml``, so the two cannot drift
apart.  For each version whose interpreter (``python3.10`` for 3.10) is
on PATH, a dozen calls of the recorded CLI grid
(``tests/data/cli_grid.json``) run through it as ``python3.10 -m
guhecke`` with this checkout's src on PYTHONPATH: every command and
format, and a refused call each for exit 1 and exit 3.  Each must give
its recorded exit code and stdout sha256.  The probe runs with
``PYENV_VERSION`` set to the version, which selects it when the name is a
pyenv shim and is ignored otherwise, and the calls use the executable it
reports, so no call pays for the shim.  Without a working interpreter the
version's test is skipped.
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

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
WORKFLOW = (ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")
FLOOR = re.search(r'requires-python = ">=(\d+\.\d+)"', PYPROJECT).group(1)
MATRIX = tuple(re.findall(r'"(\d+\.\d+)"', re.search(
    r"python-version: \[([^\]]*)\]", WORKFLOW).group(1)))

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


def _version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def interpreter(version: str) -> str | None:
    """The executable of ``python<version>``, if that is on PATH and runs
    as that version."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    probe = subprocess.run(
        [exe, "-c", "import sys; print(sys.executable if sys.version_info[:2]"
                    f" == {_version(version)} else '')"],
        capture_output=True, text=True, env=dict(src_env(),
                                                  PYENV_VERSION=version))
    return (probe.stdout.strip() or None) if probe.returncode == 0 else None


def _replay_grid(version: str) -> None:
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"no working python{version} on PATH")
    fixture = str(fixture_path())
    for case in CASES:
        argv = [fixture if a == FIXTURE else a for a in case.split()]
        proc = subprocess.run([exe, "-m", "guhecke", *argv],
                              capture_output=True, env=src_env(), timeout=120)
        got = {"exit": proc.returncode,
               "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        want = RECORDED[case]
        assert got == {"exit": want["exit"], "sha256": want["sha256"]}, case


def test_cases_are_recorded_and_cover_every_command_and_exit():
    assert set(CASES) <= set(RECORDED)
    assert {case.split(" --")[0] for case in CASES} == {
        "hecke", "dd models", "dd slopes", "dd isoc", "dd strata",
        "dd classify"}
    assert {case.split()[-1] for case in CASES} >= {"json", "csv", "pretty"}
    assert {RECORDED[case]["exit"] for case in CASES} == {0, 1, 3}


def test_the_oldest_ci_interpreter_is_the_floor():
    assert min(MATRIX, key=_version) == FLOOR, MATRIX


def test_grid_calls_match_under_the_oldest_supported_interpreter():
    _replay_grid(FLOOR)


@pytest.mark.parametrize("version", [v for v in MATRIX if v != FLOOR])
def test_grid_calls_match_under_each_newer_ci_interpreter(version):
    _replay_grid(version)
