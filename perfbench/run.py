"""perfbench: end-to-end and per-layer timings of the guhecke CLI.

    python3 perfbench/run.py --workload hecke --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the requests of the
workload are sent one at a time as ``python -m guhecke`` child processes
(a closed loop with one client) in whole passes until ``--seconds`` is
used up (at least ``TIMED_PASSES[workload]`` passes), with the reference
task run between calls; every output is checked, and the end-to-end
metrics are printed at the reference speed.  With ``--trace 1`` each
request is sent once more as a CLI call and then replayed in this
process with spans around the program's public calls, and the per-layer
metrics are printed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, workloads  # noqa: E402
from perfbench.workloads import Request  # noqa: E402

SETUPS = 5            # set-ups per end-to-end run; setup_s is their median
# A request's call time is its median over this many passes, the first
# of the run.  With the reference task between calls a pass takes about
# nine seconds on hecke, twelve on classify and eleven on selftest (one
# call), so a run takes about --seconds 25 or a little more.
TIMED_PASSES = {"hecke": 3, "classify": 2, "selftest": 3}
# Each gap between timed steps runs the reference task at least once and
# until it has taken this share of the step before it, so a long call is
# scaled by a reference sampled over a comparable stretch of time.
REF_SHARE = 0.1
# A step is scaled by the gaps next to it and every other gap that lies
# within this many seconds of it, which evens out a short call's single
# reference runs without reaching past the speed changes of the host.
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 0.125  # the reference task's time at the reported speed
STARTUP_CALLS = 5     # trivial calls per traced run; cli.startup_s median
HARD_LIMIT_S = 150.0  # no call starts after this, whatever --seconds says
WORK_DIR = ROOT / "perfbench" / "_work"

SPAN_METRICS = (
    # (metric, span, not counted when nested under this span)
    ("cli.json_encode_s", "cli.json_encode", None),
    ("laurent.expand_s", "laurent.expand", None),
    ("laurent.divide_s", "laurent.divide", None),
    ("laurent.to_json_s", "laurent.to_json", None),
    ("laurent.evaluate_s", "laurent.evaluate", None),
    ("rootdatum.weyl_check_s", "rootdatum.weyl_check", None),
    ("hecke.report_s", "hecke.report", None),
    ("hecke.det_crosscheck_s", "hecke.det_crosscheck", None),
    ("finitefield.tables_s", "finitefield.tables", None),
    ("finitefield.rref_s", "finitefield.rref", None),
    ("dieudonne.from_json_s", "dieudonne.from_json", None),
    ("dieudonne.check_bt1_s", "dieudonne.check_bt1", None),
    ("dieudonne.signature_s", "dieudonne.signature", None),
    ("dieudonne.fingerprint_s", "dieudonne.fingerprint",
     "dieudonne.model_fingerprints"),
    ("dieudonne.model_fingerprints_s", "dieudonne.model_fingerprints", None),
    ("dieudonne.model_space_s", "dieudonne.model_space", None),
    ("dieudonne.to_json_s", "dieudonne.to_json", None),
    ("dieudonne.char_poly_s", "dieudonne.char_poly", None),
    ("dieudonne.newton_s", "dieudonne.newton", None),
)
COUNT_METRICS = (
    # (metric, span, count, not counted when nested under this span)
    ("laurent.terms_H", "hecke.report", "terms_H", None),
    ("laurent.terms_R", "hecke.report", "terms_R", None),
    ("rootdatum.weyl_elements_checked", "rootdatum.weyl_check",
     "weyl_elements_checked", None),
    ("dieudonne.closure_size", "dieudonne.fingerprint", "closure_size",
     "dieudonne.model_fingerprints"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Session:
    """One benchmark run: its work directory, golden outputs and tally."""

    def __init__(self, args):
        self.args = args
        # One vCPU for this process and every child, so the reference
        # task runs where the calls and the set-ups run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.golden = harness.load_golden()
        self.env = harness.child_env(ROOT)
        self.work = WORK_DIR / f"run-{args.workload}-{args.seed}-{args.trace}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.spawner = harness.Spawner(self.work)
        self.tally = harness.Tally()
        self.calls: list[dict] = []
        self.spans: list = []
        # Each reference gap: when it started and ended, and its runs' times.
        self.gaps: list[dict] = []
        self.steps: list[dict] = []
        self.started = time.perf_counter()

    def call(self, req: Request, timed: bool) -> harness.CallResult:
        remaining = HARD_LIMIT_S + 20.0 - (time.perf_counter() - self.started)
        result = self.spawner.run(harness.cli_argv(req, self.work),
                                  self.env, ROOT,
                                  timeout=max(1.0, min(harness.CALL_TIMEOUT_S,
                                                       remaining)))
        problem = ("timed out" if result.timed_out else
                   harness.check_output(req, result.stdout, result.exit_code,
                                        self.golden))
        ok = self.tally.record(req, problem)
        self.calls.append({"key": req.key, "wall_s": result.wall_s,
                           "exit": result.exit_code, "ok": ok, "timed": timed,
                           "maxrss_kb": result.maxrss_kb})
        return result

    def setup(self) -> tuple[float, list[Request]]:
        """Generate the inputs, write them, and make one untimed call."""
        start = time.perf_counter()
        for stale in self.work.glob("*.json"):
            stale.unlink()
        requests = workloads.pass_requests(self.args.workload, self.args.seed)
        warmup = workloads.warmup_request(self.args.workload, self.args.seed)
        for req in (*requests, warmup):
            if req.input_name is not None:
                (self.work / req.input_name).write_text(
                    json.dumps(req.input_doc), encoding="utf-8")
        self.call(warmup, timed=False)
        return time.perf_counter() - start, requests

    def now(self) -> float:
        return time.perf_counter() - self.started

    def reference_gap(self, after_s: float):
        """Run the reference task once, and again until it has taken
        ``REF_SHARE`` of ``after_s``."""
        start = self.now()
        times: list[float] = []
        while not times or sum(times) < REF_SHARE * after_s:
            times.append(self.spawner.run(harness.REFERENCE_ARGV, self.env,
                                          ROOT).wall_s)
        self.gaps.append({"start": start, "end": self.now(), "runs": times})

    def step(self, start: float, raw_s: float, **fields) -> dict:
        """Record a timed step that began at ``start`` and took ``raw_s``,
        then run the reference gap after it."""
        if not self.gaps:
            raise RuntimeError("no reference gap before the timed step")
        step = {"start": start, "raw_s": raw_s, "gap": len(self.gaps) - 1,
                **fields}
        self.steps.append(step)
        self.reference_gap(raw_s)
        return step

    def scale_steps(self):
        """Give every step its time at the reference speed."""
        for step in self.steps:
            j, start = step["gap"], step["start"]
            near = [statistics.fmean(gap["runs"])
                    for k, gap in enumerate(self.gaps)
                    if k in (j, j + 1) or start - REF_WINDOW_S
                    <= (gap["start"] + gap["end"]) / 2
                    <= start + step["raw_s"] + REF_WINDOW_S]
            step["scaled_s"] = harness.at_reference_speed(
                step["raw_s"], near, REF_NOMINAL_S)

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > HARD_LIMIT_S

    def passes(self, requests: list[Request], body, min_passes: int):
        """Call ``body(position, request)`` over whole passes, each in its
        seeded order, until another pass would end further past
        ``--seconds`` than short of it (but at least ``min_passes``)."""
        start = time.perf_counter()
        done = 0
        while not self.out_of_time():
            for i in workloads.pass_order(len(requests), self.args.workload,
                                          self.args.seed, done):
                if self.out_of_time():
                    break
                body(i, requests[i])
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_passes and \
                    elapsed + elapsed / done / 2 >= self.args.seconds:
                break
        return done, time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(session: Session):
    session.reference_gap(0.0)
    setups = []
    for _ in range(SETUPS):
        start = session.now()
        seconds, requests = session.setup()
        setups.append(session.step(start, seconds))
    # Every run times each request in its first `timed` passes; later
    # passes, which a faster program gets more of, feed only the raw_*
    # notes, so the statistic does not depend on the program's speed.
    # Requests with the same command line are one request, timed once per
    # time it appears in those passes.
    timed = TIMED_PASSES[session.args.workload]
    steps: list[dict] = []
    failed: set[str] = set()
    good: list[float] = []
    rss = []

    def body(_, req):
        start = session.now()
        result = session.call(req, timed=True)
        step = session.step(start, result.wall_s, key=req.key)
        if len(rss) < timed * len(requests):
            steps.append(step)
        rss.append(result.maxrss_kb)
        if session.calls[-1]["ok"]:
            good.append(result.wall_s)
        else:
            failed.add(req.key)

    passes, window = session.passes(requests, body, timed)
    session.scale_steps()
    scaled: dict[str, list[float]] = {}
    for step in steps:
        if step["key"] not in failed:
            scaled.setdefault(step["key"], []).append(step["scaled_s"])
    kept = list(scaled.values()) or [[window]]
    per_request = [statistics.median(v) for v in kept]
    tail_value, tail_pct, tail_n = harness.tail(per_request)
    # The rate of one client sending the timed passes back to back, each
    # call at its request's median time.
    pass_s = sum(len(v) * m for v, m in zip(kept, per_request))
    metrics = {
        "call_p50_s": metric(statistics.median(per_request), "s"),
        "call_tail_s": metric(tail_value, "s"),
        "calls_per_s": metric(sum(map(len, kept)) / pass_s, "1/s"),
        "setup_s": metric(statistics.median(s["scaled_s"] for s in setups),
                          "s"),
        "peak_rss_mb": metric(max(rss) / 1024, "MB"),
    }
    calls = len(rss)
    notes = {
        "passes": passes,
        "timed_calls": calls,
        "requests_per_pass": len(requests),
        "distinct_requests": len(per_request),
        "call_tail_percentile": tail_pct,
        "call_tail_samples": tail_n,
        "fail_ratio": (calls - len(good)) / calls,
        "reference_runs": sum(len(gap["runs"]) for gap in session.gaps),
        "reference_p50_s": statistics.median(
            t for gap in session.gaps for t in gap["runs"]),
        "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
        "raw_call_p50_s": statistics.median(good) if good else None,
        "raw_calls_per_s": len(good) / sum(good) if good else None,
    }
    return metrics, notes


def command_of(req: Request) -> str:
    return req.argv[1] if req.argv[0] == "dd" else req.argv[0]


def traced(session: Session):
    from perfbench.replay import LAYERS, PROBE_SPANS, ROOT_PREFIX, Replayer
    from perfbench.spans import Tracer, layer_self_times, outermost_total

    _, requests = session.setup()
    startup = statistics.median(
        session.call(workloads.startup_request(), timed=False).wall_s
        for _ in range(STARTUP_CALLS))
    tracer = Tracer()
    untraced: list[float] = []
    stdout_bytes = 0

    def body(_, req):
        nonlocal stdout_bytes
        untraced.append(session.call(req, timed=True).wall_s)
        tracer.request = len(untraced)
        code, out = replayer.run(
            harness.resolved_argv(req, session.work), command_of(req), req.p,
            req.kind in ("classify-ok", "classify-mismatch"))
        stdout_bytes += len(out)
        session.tally.record(req, harness.check_output(req, out, code,
                                                       session.golden))
        if req.kind == "classify-ok":
            replayer.rref_probe(session.work / req.input_name)

    with Replayer(ROOT, tracer) as replayer:
        passes, _ = session.passes(requests, body, 1)
        criteria = replayer.criterion_names()
    spans = session.spans = tracer.spans
    count = len(untraced)
    metrics = {"cli.startup_s": metric(startup, "s"),
               "cli.stdout_bytes": metric(stdout_bytes / count, "B")}
    for name, span, not_under in SPAN_METRICS:
        total, _ = outermost_total(spans, span, not_under)
        metrics[name] = metric(total / count, "s")
    for name, span, key, not_under in COUNT_METRICS:
        _, counts = outermost_total(spans, span, not_under)
        metrics[name] = metric(counts.get(key, 0) / count, "count")
    for crit in criteria:
        total, _ = outermost_total(spans, f"acceptance.{crit}")
        metrics[f"acceptance.{crit}_s"] = metric(total / count, "s")
    selfs = layer_self_times(spans, skip=PROBE_SPANS)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(selfs.get(layer, 0.0) / count, "s")
    roots = sum(s.duration for s in spans
                if s.parent is None and s.name.startswith(ROOT_PREFIX))
    metrics["trace.coverage"] = metric(
        roots / max(sum(untraced) - count * startup, 1e-9), "ratio")
    notes = {"passes": passes, "replayed": count, "spans": len(spans),
             "untraced_call_s": sum(untraced), "wrappers_missing":
             replayer.missing}
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "guhecke" / "__main__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'guhecke'}; run from "
              "the root of a guhecke checkout", file=sys.stderr)
        return 2
    if not harness.GOLDEN_PATH.is_file():
        print(f"perfbench: missing {harness.GOLDEN_PATH}", file=sys.stderr)
        return 2
    params = {"requests_per_pass": [r.key for r in workloads.pass_requests(
        args.workload, args.seed)]}
    info = harness.provenance(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace), params)
    session = Session(args)
    try:
        metrics, notes = (traced if args.trace else end_to_end)(session)
    finally:
        session.spawner.close()
        shutil.rmtree(session.work)
    tally = session.tally
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"provenance": info, "notes": notes, "failures": tally.reasons,
              "calls": session.calls, "scaled_steps": session.steps,
              "reference_gaps": session.gaps,
              "spans": [dataclasses.asdict(s) for s in session.spans],
              **result}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(info))
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
