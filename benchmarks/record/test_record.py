"""Tests of the benchmark of record's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/record -q``
(tier-1's ``testpaths`` does not include this directory; the parent
``benchmarks/conftest.py`` imports the package).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import common
import compare
import hostspeed
import run
import tracer as tracing
import workloads
from common import percentile, quartiles, samples_beyond
from hostspeed import HostMeter
from tracer import Span, Tracer, self_times

from repro.bdd.manager import Manager


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_sequential_children():
    spans = [Span(1, None, "t", "root", 0.0, 10.0),
             Span(2, 1, "t", "a", 1.0, 3.0),
             Span(3, 1, "t", "b", 4.0, 6.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)


def test_self_time_counts_nested_grandchildren_once():
    spans = [Span(1, None, "t", "root", 0.0, 10.0),
             Span(2, 1, "t", "child", 1.0, 5.0),
             Span(3, 2, "t", "grandchild", 2.0, 4.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    # Two threads' children of one span overlap in time; the covered
    # part is their union, clipped to the parent.
    spans = [Span(1, None, "t", "root", 0.0, 10.0),
             Span(2, 1, "t", "a", 2.0, 5.0),
             Span(3, 1, "t", "b", 4.0, 8.0),
             Span(4, 1, "t", "c", 9.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_links_parents_and_inherits_trace_ids():
    tracer = Tracer()
    with tracer.span("outer", "w/job") as outer:
        with tracer.span("inner") as inner:
            pass
        wrapped = tracer.wrap("leaf", lambda x: x + 1)
        assert wrapped(1) == 2
    done = threading.Event()

    def other_thread():
        with tracer.span("elsewhere"):
            pass
        done.set()

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert done.is_set()
    by_name = {span.name: span for span in tracer.spans}
    assert inner.parent == outer.id and inner.trace == "w/job"
    assert by_name["leaf"].parent == outer.id
    assert by_name["elsewhere"].parent is None
    assert all(span.end >= span.start for span in tracer.spans)
    self_s, total_s, calls = tracing.layer_seconds(tracer.spans)
    assert calls == {"outer": 1, "inner": 1, "leaf": 1, "elsewhere": 1}
    assert self_s["outer"] <= total_s["outer"]


def test_spans_of_separate_passes_keep_unique_ids():
    # Each pass's interpreter numbers its spans from 1.
    rows = [[1, None, "w/a", "bench.solve", 0.0, 4.0],
            [2, 1, "w/a", "reach.image", 1.0, 2.0]]
    spans = run.gather_spans([{"spans": rows}, {"spans": rows}])
    assert [s.id for s in spans] == [1, 2, 3, 4]
    assert [s.parent for s in spans] == [None, 1, None, 3]
    assert run.coverage(spans, "bench.solve") == pytest.approx(25.0)


def test_coverage_leaves_out_reference_loop_spans():
    # The meter times the reference loop inside a traversal's step
    # hook: that time is neither the program's nor the benchmark's glue.
    spans = [Span(1, None, "w/a", "bench.solve", 0.0, 10.0),
             Span(2, 1, "w/a", "reach.loop", 0.0, 8.0),
             Span(3, 2, "w/a", "bench.meter", 2.0, 4.0)]
    assert run.coverage(spans, "bench.solve") == pytest.approx(75.0)


def test_install_and_restore_leave_the_package_untouched():
    from repro.bdd.function import Function
    from repro.core.approx import UNDER_APPROXIMATORS
    from repro.core.decomp import decompose
    from repro.reach import TransitionRelation

    originals = (vars(Function)["and_exists"],
                 vars(TransitionRelation)["image"],
                 dict(UNDER_APPROXIMATORS), dict(workloads.APPROXIMATORS),
                 workloads.decompose)
    tracer = Tracer()
    patches = tracing.install(tracer, workloads.APPROXIMATORS)
    try:
        assert workloads.decompose is not decompose
        m = Manager(["a", "b"])
        f = m.var("a") & m.var("b")
        workloads.decompose(f, "cofactor")
        assert [s.name for s in tracer.spans][-1] == "decomp.cofactor"
    finally:
        patches.restore()
    assert (vars(Function)["and_exists"], vars(TransitionRelation)["image"],
            dict(UNDER_APPROXIMATORS), dict(workloads.APPROXIMATORS),
            workloads.decompose) == originals


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------

def test_meter_scales_each_segment_by_its_bounding_references(monkeypatch):
    refs = iter([0.003, 0.002, 0.002])
    monkeypatch.setattr(hostspeed, "time_reference", lambda: next(refs))
    meter = HostMeter(time.monotonic(), 0.001, "setup")
    time.sleep(0.01)
    meter.cut("solve")
    time.sleep(hostspeed.SAMPLE_EVERY_S)
    assert meter.due()
    meter.cut()
    time.sleep(0.01)
    meter.cut("after")
    nominal = hostspeed.NOMINAL_REF_S
    # setup: references 1 and 3 ms bound it, so it counts half.
    assert meter.normalised("setup") == pytest.approx(
        meter.wall("setup") * nominal / 0.002)
    # solve: two segments, bounded by 3 and 2 ms, then 2 and 2 ms.
    assert meter.wall("solve") >= hostspeed.SAMPLE_EVERY_S + 0.01
    assert nominal / 0.0025 * meter.wall("solve") \
        <= meter.normalised("solve") <= nominal / 0.002 * meter.wall("solve")
    assert meter.refs == [0.001, 0.003, 0.002, 0.002]
    assert meter.wall("never") == meter.normalised("never") == 0.0


def test_meter_leaves_reference_time_out_of_both_totals(monkeypatch):
    def slow_reference():
        time.sleep(0.05)
        return 0.001

    monkeypatch.setattr(hostspeed, "time_reference", slow_reference)
    began = time.monotonic()
    meter = HostMeter(began, 0.001, "solve")
    for _ in range(3):
        meter.cut()
    elapsed = time.monotonic() - began
    assert meter.wall("solve") < elapsed - 0.14
    assert meter.normalised("solve") == pytest.approx(meter.wall("solve"))


def test_reference_loop_is_fixed_work():
    assert hostspeed.reference_loop() == hostspeed.reference_loop()
    assert 0.0 < hostspeed.time_reference() < 1.0


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------

def test_percentile_interpolates_linearly():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 95) == pytest.approx(95.05)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(900, 99) == 9
    assert samples_beyond(189, 95) == 10
    assert samples_beyond(42, 75) == 11
    assert samples_beyond(35, 75) == 9
    assert samples_beyond(1, 50) == 0


def test_quartiles_match_statistics_quantiles():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)


def test_latency_pools_passes_at_the_workloads_fixed_tails():
    passes = [workloads.PassResult(light=[i / 1e3 for i in range(100)],
                                   heavy=[1.0, 2.0, 3.0, 4.0, 5.0]),
              workloads.PassResult(light=[i / 1e3 for i in range(100)],
                                   heavy=[1.0, 2.0, 3.0, 4.0, 5.0])]
    light_tail, heavy_tail = workloads.TAILS["tables"]
    metrics = run.latency("tables", passes)
    both = [i / 1e3 for i in range(100)] * 2
    assert metrics["light_p50_ms"] == pytest.approx(49.5)
    assert metrics["light_tail_ms"] == pytest.approx(
        percentile(both, light_tail) * 1e3)
    assert metrics["heavy_p50_ms"] == pytest.approx(3000.0)
    assert metrics["heavy_tail_ms"] == pytest.approx(
        percentile([1.0, 2.0, 3.0, 4.0, 5.0] * 2, heavy_tail) * 1e3)
    # Every workload fixes both tails, so they never move between runs.
    assert set(workloads.TAILS) == set(workloads.WORKLOADS)


def test_run_window_is_fixed_by_the_benchmark():
    with pytest.raises(SystemExit) as refused:
        run.main(["--workload", "tables", "--seconds", "1"])
    assert refused.value.code == 2


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_gain_needs_nine_tenths_of_pairs_and_the_spread():
    faster = [x * 0.8 for x in BASE]
    assert compare.verdict(BASE, faster, "lower", 0.1)[0] == "gain"
    # One lost pair in ten still counts; two do not.
    nine = faster[:9] + [BASE[9] * 1.01]
    assert compare.verdict(BASE, nine, "lower", 0.1)[0] == "gain"
    eight = faster[:8] + [x * 1.01 for x in BASE[8:]]
    assert compare.verdict(BASE, eight, "lower", 0.1)[0] == "unchanged"
    # Higher-is-better metrics mirror the rule.
    assert compare.verdict(BASE, [x * 1.2 for x in BASE], "higher",
                           0.1)[0] == "gain"
    # Fewer than ten pairs never make a gain, however clear.
    assert compare.verdict(BASE[:9], faster[:9], "lower",
                           0.1)[0] == "unchanged"


def test_verdict_regression_beyond_the_bound():
    slower = [x * 1.15 for x in BASE]
    result, won, worse = compare.verdict(BASE, slower, "lower", 0.1)
    assert (result, won) == ("regression", 0.0)
    assert worse == pytest.approx(0.15, abs=0.01)
    assert compare.verdict(BASE, [x * 1.05 for x in BASE], "lower",
                           0.1)[0] == "unchanged"


def test_verdict_unresolved_when_the_base_is_noisier_than_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    close = [x * 1.02 for x in noisy]
    assert compare.verdict(noisy, close, "lower", 0.1)[0] == "unresolved"


def test_verdict_without_bound_is_informational():
    assert compare.verdict([3.0, 3.0], [3.0, 3.0], "lower",
                           None)[0] == "unchanged"
    assert compare.verdict([3.0, 3.0], [4.0, 4.0], "lower",
                           None)[0] == "changed"


def _result(workload, value, failed=0, nodes=500, ops=100):
    return {"workload": workload, "seed": 1, "backend": "object",
            "attempted": ops, "ops_per_pass": ops, "failed": failed,
            "traced": False,
            "end_to_end": {"solve_s": value, "peak_live_nodes": nodes,
                           "unlisted": 1.0}}


def _write_set(path, results):
    path.mkdir()
    for index, result in enumerate(results):
        (path / f"run{index}.json").write_text(
            json.dumps({"results": [result]}))
    return path


SPEC = {"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower",
                        "bound": 0.1},
                       {"name": "peak_live_nodes", "unit": "nodes",
                        "better": "lower", "bound": 0.1}],
        "per_layer": []}


def _set(tmp_path, name, **kwargs):
    scale = kwargs.pop("scale", 1.0)
    return compare.load_set(_write_set(
        tmp_path / name, [_result("w", v * scale, **kwargs) for v in BASE]))


def test_compare_sets_flags_regressions_and_failure_share(tmp_path):
    base = _set(tmp_path, "base")
    assert compare.compare(base, _set(tmp_path, "same"), SPEC)[1]
    rows, ok = compare.compare(base, _set(tmp_path, "slow", scale=1.3),
                               SPEC)
    assert not ok
    assert rows[0][1] == "solve_s" and rows[0][-1] == "regression"
    rows, ok = compare.compare(base, _set(tmp_path, "failing", failed=1),
                               SPEC)
    assert not ok and rows[-1][1] == "failure_share"
    summary = compare.summarize(base, SPEC)
    assert summary["w"]["runs"] == 10
    # only the metrics BENCHMARK.json defines are compared or summarized
    assert list(summary["w"]["metrics"]) == ["solve_s", "peak_live_nodes"]
    assert summary["w"]["metrics"]["solve_s"]["median"] == 10.0


def test_compare_gates_counts_exactly(tmp_path):
    base = _set(tmp_path, "base")
    # One more node is inside the 10% bound but still a regression.
    rows, ok = compare.compare(base, _set(tmp_path, "more", nodes=501),
                               SPEC)
    assert not ok
    assert {row[1]: row[-1] for row in rows}["peak_live_nodes"] \
        == "regression"
    rows, ok = compare.compare(base, _set(tmp_path, "fewer", nodes=499),
                               SPEC)
    assert ok
    assert {row[1]: row[-1] for row in rows}["peak_live_nodes"] == "gain"
    # Different work per pass: nothing else is compared.
    rows, ok = compare.compare(base, _set(tmp_path, "other", ops=101),
                               SPEC)
    assert not ok and [row[1] for row in rows] == ["ops_per_pass"]


# ----------------------------------------------------------------------
# Output checkers
# ----------------------------------------------------------------------

EXPECTED = common.load_json(common.EXPECTED_PATH)


def test_reach_checker_rejects_wrong_digest_and_count():
    label, want = next(iter(EXPECTED["reach"].items()))
    good = (label, want["digest"], want["states"])
    assert workloads.check_reach([good], EXPECTED["reach"]) == []
    wrong = (label, "0" * 64, want["states"])
    assert workloads.check_reach([wrong], EXPECTED["reach"])
    miscounted = (label, want["digest"], want["states"] + 1)
    assert workloads.check_reach([miscounted], EXPECTED["reach"])
    assert workloads.check_reach([("nowhere(1)", "0" * 64, 1)],
                                 EXPECTED["reach"])


def test_reach_digest_is_the_canonical_store_address():
    m = Manager(["a", "b"])
    f = m.var("a") | m.var("b")
    other = Manager(["a", "b"], backend="array")
    g = other.var("a") | other.var("b")
    assert workloads.reach_digest(f) == workloads.reach_digest(g)
    assert workloads.reach_digest(f) != workloads.reach_digest(f & m.var("a"))


def test_every_reach_circuit_has_one_shared_expected_digest():
    traversals = workloads.WORKLOADS["reach"]().traversals
    assert {item.label for item in traversals} == set(EXPECTED["reach"])
    # am2910 runs both ways, so its BFS and high-density reached sets
    # are checked against the same digest.
    methods = {item.method for item in traversals
               if item.label == "am2910(4,3)"}
    assert methods == {"bfs", "sp"}


def test_tables_checker_rejects_wrong_digest_and_broken_contracts():
    recorded = EXPECTED["tables"]["2024"]
    assert workloads.check_digest("tables", recorded, 2024, EXPECTED) == []
    assert workloads.check_digest("tables", "0" * 64, 2024, EXPECTED)
    # Seeds without a recorded digest are checked structurally only.
    assert workloads.check_digest("tables", "0" * 64, 99, EXPECTED) == []
    m = Manager(["a", "b"])
    a, b = m.var("a"), m.var("b")
    f = a & b
    _, failures = workloads.table_row("f", f, {"rua": f, "c1": a}, {})
    assert any("c1 is not below f" in x for x in failures)
    _, failures = workloads.table_row("f", f, {}, {"cofactor": (a, m.true)})
    assert any("conjoin" in x for x in failures)


def test_serve_checker_rejects_wrong_digest_and_replay_mismatch():
    serve = workloads.ServeWorkload()
    good = {"digest": EXPECTED["serve"]["7"], "replay_mismatches": 0}
    assert serve.check(good, 7, EXPECTED)[0] == []
    wrong = {"digest": "0" * 64, "replay_mismatches": 0}
    assert serve.check(wrong, 7, EXPECTED)[0]
    replay = {"digest": EXPECTED["serve"]["7"], "replay_mismatches": 3}
    assert serve.check(replay, 7, EXPECTED)[0]


def test_script_digest_ignores_wall_clock_fields():
    reply = {"states": 3, "seconds": 0.5}
    a = [("reach", {}, reply, 0.1)]
    b = [("reach", {}, dict(reply, seconds=9.0), 0.2)]
    assert workloads.script_digest(a) == workloads.script_digest(b)
    c = [("reach", {}, dict(reply, states=4), 0.1)]
    assert workloads.script_digest(a) != workloads.script_digest(c)
