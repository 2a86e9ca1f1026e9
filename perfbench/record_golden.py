"""Record the golden outputs: exit code and stdout sha256 of every request
any seed can send, one CLI call each.

    python3 perfbench/record_golden.py

Run it from the root of a checkout, and only to accept a change of
output on purpose; the benchmark counts every call whose output differs
from this file as a failure.  Requests whose output must not depend on
the input values (the selftest seed) are recorded for two values and
must agree.  Each call's wall time is printed beside its key.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, workloads  # noqa: E402


def main() -> int:
    work = ROOT / "perfbench" / "_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    env = harness.child_env(ROOT)
    outputs = {}
    spawner = harness.Spawner(work)
    try:
        for workload in workloads.WORKLOADS:
            for req in workloads.golden_requests(workload):
                variants = [req]
                if req.kind == "selftest":
                    variants.append(replace(req, argv=("selftest", "--seed",
                                                       "7")))
                seen = set()
                for variant in variants:
                    if variant.input_name is not None:
                        (work / variant.input_name).write_text(
                            json.dumps(variant.input_doc), encoding="utf-8")
                    res = spawner.run(harness.cli_argv(variant, work),
                                      env, ROOT)
                    problem = harness.semantic_problem(variant, res.stdout,
                                                       res.exit_code)
                    if problem or res.timed_out:
                        print(f"{variant.key}: {problem or 'timed out'}",
                              file=sys.stderr)
                        return 1
                    entry = {"exit": res.exit_code,
                             "sha256": harness.sha256(res.stdout)}
                    seen.add(json.dumps(entry, sort_keys=True))
                    print(f"{res.wall_s:8.3f} s {res.maxrss_kb / 1024:7.1f} MB "
                          f"{len(res.stdout):8d} B  {' '.join(variant.argv)}",
                          flush=True)
                if len(seen) != 1:
                    print(f"{req.key}: output depends on its seed",
                          file=sys.stderr)
                    return 1
                outputs[req.key] = entry
    finally:
        spawner.close()
        shutil.rmtree(work)
    doc = {"about": "exit code and stdout sha256 of every perfbench request, "
                    "recorded with perfbench/record_golden.py",
           "outputs": dict(sorted(outputs.items()))}
    harness.GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
