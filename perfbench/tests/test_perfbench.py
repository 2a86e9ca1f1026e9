"""Tests of the benchmark itself: its statistics, its span arithmetic, its
output checks and its seeded inputs.  Each runs in well under a second."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import harness, workloads  # noqa: E402
from perfbench.replay import Replayer  # noqa: E402
from perfbench.spans import (Span, Tracer, layer_self_times,  # noqa: E402
                             outermost_total, self_times)


# -- tail percentile ----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert harness.tail(values) == (90, 90.0, 100)


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, n = harness.tail([5.0, *range(10, 20)])
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [1, 2, 10])
def test_tail_without_ten_samples_beyond_falls_back_to_the_maximum(n):
    assert harness.tail([float(i) for i in range(n)]) == (n - 1, 100.0, n)


# -- reference speed ----------------------------------------------------------


def test_a_call_is_scaled_by_the_references_around_it():
    # The machine ran at half the reference speed: the call reads half.
    assert harness.at_reference_speed(2.0, [0.2, 0.3], 0.125) == \
        pytest.approx(1.0)
    assert harness.at_reference_speed(2.0, [0.125], 0.125) == 2.0


def test_the_reference_task_runs_and_needs_nothing_from_the_program(tmp_path):
    with harness.Spawner(tmp_path) as spawner:
        ref = spawner.run(harness.REFERENCE_ARGV, {}, tmp_path)
    assert (ref.exit_code, ref.stdout, ref.timed_out) == (0, b"", False)
    assert ref.wall_s > 0


# -- spans ------------------------------------------------------------------------


def _nested():
    return [
        Span("cli.hecke", 0.0, 10.0, None, 1),
        Span("hecke.report", 1.0, 4.0, 0, 1),
        Span("laurent.expand", 2.0, 3.0, 1, 1),
        Span("laurent.divide", 5.0, 9.0, 0, 1),
        Span("finitefield.rref", 11.0, 12.5, None, 1),
    ]


def test_self_time_subtracts_direct_children():
    assert self_times(_nested()) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_layer_self_time_sums_per_layer_and_skips_probes():
    totals = layer_self_times(_nested(), skip={"finitefield.rref"})
    assert totals == {"cli": 3.0, "hecke": 2.0, "laurent": 5.0}


def test_outermost_total_skips_nested_and_excluded_spans():
    spans = [
        Span("dieudonne.fingerprint", 0.0, 1.0, None, 1, {"closure_size": 4}),
        Span("dieudonne.model_fingerprints", 1.0, 5.0, None, 1),
        Span("dieudonne.fingerprint", 2.0, 4.0, 1, 1, {"closure_size": 9}),
    ]
    assert outermost_total(spans, "dieudonne.fingerprint") == (
        3.0, {"closure_size": 13})
    assert outermost_total(spans, "dieudonne.fingerprint",
                           "dieudonne.model_fingerprints") == (
        1.0, {"closure_size": 4})


def test_tracer_records_parents_and_pauses():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "laurent.expand")
    with tracer.span("cli.hecke"):
        assert inner(1) == 2
        with tracer.paused():
            inner(2)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli.hecke", None), ("laurent.expand", 0)]
    assert tracer.spans[0].end >= tracer.spans[1].end


# -- output checks ------------------------------------------------------------------


def test_wrong_stdout_is_counted_as_a_failure(tmp_path):
    req = workloads.startup_request()
    golden = harness.load_golden()
    tally = harness.Tally()
    env = harness.child_env(ROOT)
    with harness.Spawner(tmp_path) as spawner:
        right = spawner.run(harness.cli_argv(req, tmp_path), env, ROOT)
    assert tally.record(req, harness.check_output(
        req, right.stdout, right.exit_code, golden))
    assert not tally.record(req, harness.check_output(req, b"[]\n", 0, golden))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from the golden output" in tally.reasons[0]
    assert right.maxrss_kb > 0


def test_classify_answer_is_checked_against_its_generating_type():
    req = workloads.pass_requests("classify", 0)[0]
    assert req.kind == "classify-ok"
    good = b'{"type":%d}\n' % req.r
    bad = b'{"type":%d}\n' % (req.r % req.n + 1)
    assert harness.semantic_problem(req, good, 0) is None
    assert harness.semantic_problem(req, bad, 0) is not None


def test_selftest_summary_must_count_every_criterion():
    req = workloads.pass_requests("selftest", 0)[0]
    assert harness.semantic_problem(req, b"x\n11/11 criteria passed\n", 0) is None
    assert harness.semantic_problem(req, b"x\n9/10 criteria passed\n", 0)


# -- seeded inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = workloads.pass_requests(workload, 11)
    assert first == workloads.pass_requests(workload, 11)
    assert sorted(r.kind for r in first) == sorted(
        r.kind for r in workloads.pass_requests(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_a_golden_output(workload):
    golden = harness.load_golden()
    for seed in range(5):
        for req in (*workloads.pass_requests(workload, seed),
                    workloads.warmup_request(workload, seed)):
            assert req.key in golden, req.key


def test_generated_models_match_the_program():
    from guhecke.dieudonne import model_space

    for n, p in ((3, 3), (5, 7)):
        for r in range(1, n + 1):
            ours = workloads.model_matrices(n, r, p)
            theirs = model_space(n, r, p).to_json()
            for name, mat in ours.items():
                assert [[list(x) for x in row] for row in mat] == theirs[name]


def test_basechanged_inputs_classify_back_to_their_type():
    from guhecke.dieudonne import DieudonneSpace, classify_type

    rng = random.Random(3)
    for r in workloads.classify_types(5):
        doc = workloads.basechanged_space(5, r, 7, rng)
        assert classify_type(DieudonneSpace.from_json(doc), 5) == r


# -- replay --------------------------------------------------------------------------


def test_replay_nests_spans_and_restores_the_program():
    import guhecke.hecke as hecke_mod
    from guhecke.laurent import TPoly

    original = hecke_mod.hecke_polynomial
    original_divide = TPoly.__dict__["divide_exact"]
    req = next(r for r in workloads.golden_requests("hecke")
               if r.argv[2] == "5" and r.argv[4] == "json")
    tracer = Tracer()
    with Replayer(ROOT, tracer) as replayer:
        code, out = replayer.run(list(req.argv), "hecke", None, False)
    assert replayer.missing == []
    assert harness.check_output(req, out, code, harness.load_golden()) is None
    names = {s.name: s for s in tracer.spans}
    assert names["cli.hecke"].parent is None
    report = tracer.spans.index(names["hecke.report"])
    for child in ("laurent.expand", "laurent.divide", "rootdatum.weyl_check"):
        assert names[child].parent == report
    assert names["hecke.report"].counts["terms_H"] > 0
    assert hecke_mod.hecke_polynomial is original
    assert TPoly.__dict__["divide_exact"] is original_divide
