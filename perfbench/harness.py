"""Running CLI calls, checking their output, and summarising timings.

Each call is one ``python -m guhecke`` child process, started by the
helper in ``spawner.py`` and waited for with ``os.wait4``, so the
kernel's resource usage for that child (its peak resident set) comes
back with its exit status.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import Request

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
CALL_TIMEOUT_S = 120.0
SELFTEST_SUMMARY = re.compile(rb"^(\d+)/(\d+) criteria passed$")


@dataclass
class CallResult:
    wall_s: float
    exit_code: int
    stdout: bytes
    maxrss_kb: int
    timed_out: bool = False


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the
    path and the rank cap at its default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GUHECKE_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def resolved_argv(req: Request, work_dir: Path) -> list[str]:
    if req.input_name is None:
        return list(req.argv)
    return [str(work_dir / a) if a == req.input_name else a for a in req.argv]


def cli_argv(req: Request, work_dir: Path) -> list[str]:
    """The full command line of one CLI call."""
    return [sys.executable, "-m", "guhecke", *resolved_argv(req, work_dir)]


# The reference task: a fixed job for a fresh interpreter that uses
# nothing from the program (standard imports, then integer and dict
# work), about 0.12 s on the machine the benchmark was built on.  The
# benchmark runs it between CLI calls and scales each call by it, so the
# bounded times read at one fixed machine speed (see README.md).
REFERENCE_CODE = """\
import argparse, fractions, json
d = {}
for i in range(250000):
    k = i * 7919 % 4099
    d[k] = d.get(k, 0) + i * i
json.dumps(d)
"""
REFERENCE_ARGV = [sys.executable, "-I", "-S", "-c", REFERENCE_CODE]


class Spawner:
    """Runs child processes through ``spawner.py``, one at a time.

    Use as a context manager; leaving it closes the helper's input and
    waits for it to exit.  Each call's stdout goes to a file in
    ``work_dir`` and is read back once the call has ended.
    """

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], env: dict, cwd: Path,
            timeout: float = CALL_TIMEOUT_S) -> CallResult:
        """Run ``argv`` to completion: its wall time, exit code, stdout
        and peak resident set.  A child still running after ``timeout``
        seconds is killed and reported as timed out."""
        out_path = self.work_dir / "stdout.bin"
        request = {"argv": argv, "cwd": str(cwd), "env": env,
                   "stdout": str(out_path),
                   "stderr": str(self.work_dir / "stderr.txt"),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(reply)
        return CallResult(reply["wall_s"], reply["exit_code"],
                          out_path.read_bytes(), reply["maxrss_kb"],
                          reply["timed_out"])


# ---------------------------------------------------------------------------
# Correctness


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def semantic_problem(req: Request, stdout: bytes, exit_code: int) -> str | None:
    """Checks that hold whatever the golden file says: a classify answer
    names the type that generated the input, refused inputs exit with
    their documented code and print nothing, selftest passes all of its
    criteria."""
    if req.kind == "classify-ok":
        want = b'{"type":%d}\n' % req.r
        if exit_code != 0 or stdout != want:
            return f"expected exit 0 and {want!r}, got {exit_code} {stdout[:40]!r}"
    elif req.kind in ("classify-mismatch", "classify-corrupt"):
        want_code = 3 if req.kind == "classify-mismatch" else 1
        if exit_code != want_code or stdout:
            return f"expected exit {want_code} and no output, got {exit_code}"
    elif req.kind == "selftest":
        lines = stdout.rstrip(b"\n").split(b"\n")
        match = SELFTEST_SUMMARY.match(lines[-1]) if lines else None
        if exit_code != 0 or not match or match[1] != match[2]:
            return f"selftest did not pass every criterion (exit {exit_code})"
    elif exit_code != 0:
        return f"exit {exit_code}"
    return None


def check_output(req: Request, stdout: bytes, exit_code: int,
                 golden: dict[str, dict]) -> str | None:
    """None when the output is right, else why it is wrong."""
    want = golden.get(req.key)
    if want is None:
        return f"no golden output for {req.key!r}"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, golden {want['exit']}"
    if sha256(stdout) != want["sha256"]:
        return "stdout differs from the golden output"
    return semantic_problem(req, stdout, exit_code)


@dataclass
class Tally:
    """Calls attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, req: Request, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{req.key}: {problem}")
        return False


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, samples) for the highest percentile of
    ``values`` that has at least ``beyond`` samples above it: the
    (N - beyond)-th smallest, percentile 100 (N - beyond) / N.  With no
    more than ``beyond`` samples no percentile qualifies, and the maximum
    is reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    k = n - beyond
    return ordered[k - 1], 100.0 * k / n, n


def at_reference_speed(raw_s: float, reference_s: list[float],
                       nominal_s: float) -> float:
    """``raw_s`` as it would read where the reference task takes
    ``nominal_s``, given the reference's times around it."""
    return raw_s * nominal_s / (sum(reference_s) / len(reference_s))


# ---------------------------------------------------------------------------
# Provenance


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, a stand-in for the commit
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.decode().split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def provenance(root: Path, workload: str, seed: int, seconds: int,
               trace: bool, params: dict) -> dict:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }
