"""Benchmark of record: run the workloads, print every metric, check
every output.

    python3 benchmarks/record/run.py [--workload NAME]... [--seed N]
        [--trace 0|1|DIR] [--out FILE]

Workloads run one at a time (default: all three).  A run of a workload
repeats *passes* for ``run_seconds`` (``BENCHMARK.json``) and stops
when another pass would overrun that window.  Each pass is a fresh
interpreter (``onepass.py``) that sets up from scratch, does the
workload's fixed work once and checks its outputs, so set-up time and
peak memory are measured once per pass, cold, as every ``repro``
command pays them.  Set-up and solve times are normalised to a nominal
host speed (``hostspeed.py``), and every process of a run shares one
CPU.  Every metric is printed as ``workload metric value unit``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (the default) reports the end-to-end metrics.  ``--trace
1`` or ``--trace DIR`` alternates untraced and traced passes, reports
the per-layer metrics from the traced ones and writes their spans as
NDJSON under DIR (default ``.bench_record/trace``).  The exit status is
non-zero when any output check fails.  ``--seconds`` is accepted only
with the value of ``run_seconds``: the window belongs to the benchmark
and is the same on every commit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (HERE, SRC, WORK, load_json, load_spec, percentile,
                    samples_beyond)
from hostspeed import time_reference

if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no package source at {SRC}; run from a checkout")

import tracer as tracing  # noqa: E402
from workloads import (APPROXIMATORS, DECOMPOSERS, TAILS,  # noqa: E402
                       WORKLOADS, PassResult)

#: Passes a run makes even when they overrun the window, so that every
#: median has several samples (a traced run needs two of each kind).
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150

#: Counters copied straight from the passes' counter maps.
COUNTERS = ("bdd.steps", "bdd.cache_lookups", "bdd.gc_count",
            "reach.images", "reach.iterations", "reach.recoveries",
            "reach.peak_product_nodes", "serve.errors",
            "store.bytes_written")


def run_pass(name: str, seed: int, index: int, traced: bool) -> dict:
    """One pass in a fresh interpreter; returns its ``onepass`` record."""
    out = WORK / "tmp" / f"{name}-{os.getpid()}-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "onepass.py"), name,
               "--seed", str(seed), "--index", str(index),
               "--out", str(out)] + (["--traced"] if traced else [])
    ref = time_reference()
    spawned = time.monotonic()
    # Its own session, so the pass is killed with the daemon it started.
    child = subprocess.Popen(command + ["--spawned", repr(spawned),
                                        "--spawn-ref", repr(ref)],
                             start_new_session=True)
    try:
        code = child.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Nothing the pass started outlives it: not when it hangs, fails
        # or is interrupted (SIGINT, or SIGTERM through main's handler).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code is None:
        raise SystemExit(f"run.py: {name} pass {index} took over "
                         f"{PASS_TIMEOUT_S} s")
    if code != 0 or not out.exists():
        raise SystemExit(f"run.py: {name} pass {index} failed "
                         f"(exit {code})")
    record = load_json(out)
    out.unlink()
    return record


def measure(name: str, seed: int, seconds: float,
            traced: bool) -> list[dict]:
    """Run passes while another pass of average length fits in what is
    left of ``seconds``, so a run ends within its window.

    Traced runs alternate untraced and traced passes, so the overhead
    estimate compares neighbouring passes.
    """
    records: list[dict] = []
    least = MIN_TRACED_PASSES if traced else MIN_PASSES
    began = time.monotonic()
    while True:
        records.append(run_pass(name, seed, len(records),
                                traced and len(records) % 2 == 1))
        elapsed = time.monotonic() - began
        if len(records) >= least \
                and elapsed + elapsed / len(records) > seconds:
            return records


def _terminated(signum: int, frame: object) -> None:
    """SIGTERM unwinds like SIGINT, so the running pass is killed."""
    raise SystemExit(128 + signum)


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The reference loop then always times the CPU the work runs on,
    the daemon included, and the daemon and its client take turns on
    it as a closed loop does.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """Medians over the untraced passes; times are normalised."""
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": statistics.median(p.setup_s for p in plain),
        "solve_s": statistics.median(p.solve_s for p in plain),
        "ops_per_s": statistics.median(
            (len(p.light) + len(p.heavy)) / p.solve_s for p in plain),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        # A count: the lower median is one of the passes' values.
        "peak_live_nodes": statistics.median_low(p.peak_nodes
                                                 for p in plain),
    }


def latency(name: str, passes: list[PassResult]) -> dict:
    """Median and tail latency of light and heavy steps, pooled over
    the untraced passes, in milliseconds, with the sample counts and
    how many samples lie beyond each tail percentile."""
    plain = [p for p in passes if not p.traced]
    detail: dict = {}
    for kind, tail in zip(("light", "heavy"), TAILS[name]):
        samples = [x for p in plain for x in getattr(p, kind)]
        detail.update({
            f"{kind}_p50_ms": percentile(samples, 50) * 1e3,
            f"{kind}_tail_ms": percentile(samples, tail) * 1e3,
            f"{kind}_tail_percentile": tail,
            f"{kind}_samples": len(samples),
            f"{kind}_beyond_tail": samples_beyond(len(samples), tail),
        })
    return detail


def coverage(spans: list[tracing.Span], root: str) -> float:
    """Share of ``root`` spans' time spent inside program layers.

    Benchmark-owned spans (``bench.*``) below a root are the uncovered
    part: their self time is glue between layer calls.  ``bench.meter``
    spans timed the reference loop and count as neither.
    """
    own = tracing.self_times(spans)
    by_id = {span.id: span for span in spans}
    tops: dict[int, str] = {}

    def top(span: tracing.Span) -> str:
        if span.id not in tops:
            parent = by_id.get(span.parent) if span.parent else None
            tops[span.id] = span.name if parent is None else top(parent)
        return tops[span.id]

    metered = sum(s.end - s.start for s in spans
                  if s.name == "bench.meter" and top(s) == root)
    total = sum(s.end - s.start for s in spans
                if s.parent is None and s.name == root) - metered
    uncovered = sum(own[s.id] for s in spans
                    if s.name.startswith("bench.") and top(s) == root) \
        - metered
    return 100.0 * (1.0 - uncovered / total) if total else 0.0


def per_layer(in_process: bool, passes: list[PassResult],
              spans: list[tracing.Span]) -> tuple[dict[str, float], dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    runs = len(traced)
    self_s, total_s, calls = tracing.layer_seconds(spans)
    wall = sum(p.wall_s for p in traced)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    def own(name: str) -> float:
        return pct(self_s.get(name, 0.0))

    def counter(key: str) -> float:
        return statistics.median(p.counters.get(key, 0) for p in traced)

    metrics: dict[str, float] = {
        "fsm.encode_pct": own("fsm.encode"),
        "reach.relation_build_pct": own("reach.relation_build"),
        "population.build_pct": own("population.build"),
        "serve.boot_pct": own("serve.boot"),
        "bdd.and_exists_pct": own("bdd.and_exists"),
        "bdd.exists_pct": own("bdd.exists"),
        "bdd.rename_pct": own("bdd.rename"),
        "bdd.and_exists_calls": calls.get("bdd.and_exists", 0) / runs,
        "reach.image_pct": pct(total_s.get("reach.image", 0.0)),
        "reach.image_self_pct": own("reach.image"),
        "reach.loop_self_pct": own("reach.loop"),
        "reach.subset_pct": pct(total_s.get("reach.subset", 0.0)),
        "reach.subset_calls": calls.get("reach.subset", 0) / runs,
    }
    for key in COUNTERS:
        metrics[key] = counter(key)
    lookups = counter("bdd.cache_lookups")
    metrics["bdd.cache_hit_rate"] = (counter("bdd.cache_hits") / lookups
                                     if lookups else 0.0)

    for method in APPROXIMATORS:
        metrics[f"approx.{method}_pct"] = own(f"approx.{method}")
    metrics["approx.calls"] = sum(
        calls.get(f"approx.{m}", 0) for m in APPROXIMATORS) / runs
    for method in DECOMPOSERS:
        metrics[f"decomp.{method}_pct"] = own(f"decomp.{method}")
    metrics["decomp.calls"] = sum(
        calls.get(f"decomp.{m}", 0) for m in DECOMPOSERS) / runs

    detail: dict = {"layer_self_s": self_s, "layer_total_s": total_s,
                    "layer_calls": calls}
    waits: dict[str, float] = {}
    for kind in ("light", "heavy"):
        latency_s = sum(x for p in traced for x in getattr(p, kind))
        wait = sum(x for p in traced for x in p.extra.get(f"wait_{kind}",
                                                           ()))
        waits[kind] = 100.0 * wait / latency_s if latency_s else 0.0
        execs = [x for p in traced for x in p.extra.get(f"exec_{kind}", ())]
        if execs:
            detail[f"serve.exec_{kind}_p50_ms"] = percentile(execs, 50) * 1e3
    light_waits = [x for p in traced for x in p.extra.get("wait_light", ())]
    if light_waits:
        detail["serve.wait_light_p50_ms"] = percentile(light_waits, 50) * 1e3
        detail["serve.wait_light_p99_ms"] = percentile(light_waits, 99) * 1e3
    metrics.update({
        "serve.call_pct": own("serve.call"),
        "serve.exec_pct": own("serve.exec"),
        "serve.light_wait_pct": waits["light"],
        "serve.heavy_wait_pct": waits["heavy"],
    })
    for name in ("save", "load", "encode", "decode"):
        metrics[f"store.{name}_pct"] = own(f"store.{name}")

    metrics["trace.coverage_pct"] = coverage(
        spans, "bench.solve" if in_process else "bench.replay")
    metrics["trace.overhead_frac"] = (
        statistics.median(p.solve_s for p in traced)
        / statistics.median(p.solve_s for p in plain) - 1.0)
    return metrics, detail


def gather_spans(records: list[dict]) -> list[tracing.Span]:
    """The traced passes' spans, ids renumbered to stay unique."""
    spans: list[tracing.Span] = []
    for record in records:
        offset = max((s.id for s in spans), default=0)
        for row in record["spans"]:
            span = tracing.Span(*row)
            span.id += offset
            if span.parent is not None:
                span.parent += offset
            spans.append(span)
    return spans


def run_workload(name: str, seed: int, seconds: float,
                 trace_dir: Path | None) -> dict:
    """Run one workload; returns its result."""
    spec = load_spec()
    records = measure(name, seed, seconds, trace_dir is not None)
    passes = [PassResult(**r["pass"]) for r in records]
    failures: list[str] = []
    for index, record in enumerate(records):
        failures += record["failures"]
        if record["digests"] != records[0]["digests"]:
            failures.append(f"pass {index} output differs from pass 0")
    failed = sum(p.failed for p in passes) + len(failures)
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": trace_dir is not None, "backend": records[0]["backend"],
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "ops_per_pass": statistics.median(p.attempted for p in passes),
        "failed": failed, "correct": failed == 0, "failures": failures,
        "end_to_end": end_to_end(passes),
        "detail": {
            "pass_setup_s": [p.setup_s for p in passes],
            "pass_solve_s": [p.solve_s for p in passes],
            "pass_setup_wall_s": [p.setup_wall_s for p in passes],
            "pass_solve_wall_s": [p.solve_wall_s for p in passes],
            "pass_ref_ms": [p.ref_ms for p in passes],
            "pass_rss_mb": [p.rss_mb for p in passes],
            "pass_traced": [p.traced for p in passes],
            "digests": records[0]["digests"],
            **latency(name, passes),
        },
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = result["end_to_end"]
    if trace_dir is not None:
        spans = gather_spans(records)
        layers, detail = per_layer(WORKLOADS[name]().in_process, passes,
                                   spans)
        result["per_layer"] = reported = layers
        result["detail"].update(detail)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracing.write_ndjson(spans, trace_dir / f"{name}-seed{seed}.ndjson")
    result["metrics"] = {key: {"value": reported[key], "unit": units[key]}
                         for key in units}
    return result


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", default="0",
                        help="0: end-to-end run; 1 or DIR: traced run "
                             "writing spans under DIR")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON results here")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds is fixed at run_seconds = "
                     f"{spec['run_seconds']} by BENCHMARK.json")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    trace_dir = None
    if args.trace != "0":
        trace_dir = WORK / "trace" if args.trace == "1" \
            else Path(args.trace)

    signal.signal(signal.SIGTERM, _terminated)
    pin_to_one_cpu()
    results = [run_workload(name, args.seed, args.seconds, trace_dir)
               for name in names]
    for result in results:
        for key, metric in result["metrics"].items():
            print(f"{result['workload']} {key} {metric['value']!r} "
                  f"{metric['unit']}")
        for failure in result["failures"]:
            print(f"{result['workload']} FAILED {failure}")
    out = args.out or WORK / "results" / time.strftime(
        "%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"results": results}, handle, indent=1, sort_keys=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{key}": value for r in results
                   for key, value in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
