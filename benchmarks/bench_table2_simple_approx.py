"""Table 2: comparison of simple approximation methods.

Reproduces the paper's Table 2: geometric means of nodes, minterms and
density over the function population for F (the original function), HB,
SP, UA, and RUA, plus wins/ties on density.  Protocol follows the paper:
UA/RUA run with threshold 0 and quality 1; the RUA result sizes are used
as the thresholds for HB and SP.

The population is fanned over the experiment engine
(:func:`repro.harness.engine.run_tasks`) one spec per task — each
worker rebuilds its slice and runs
:func:`repro.harness.experiments.simple_approx_rows`; ``--jobs 1``
runs the same bodies inline and produces identical rows.  Results are
persisted to ``BENCH_table2.json``; at quick scale every row must match
its pin in ``table_digests.json``.

Run:  pytest benchmarks/bench_table2_simple_approx.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.harness import (Measurement, Task, format_table,
                           geometric_mean, population_specs, run_tasks,
                           task_rows, wins_and_ties)
from repro.harness.experiments import SIMPLE_METHODS, simple_approx_rows

METHODS = SIMPLE_METHODS


def run_engine(scale, jobs):
    tasks = [Task(spec.name, (spec, scale.min_nodes))
             for spec in population_specs()]
    return run_tasks(simple_approx_rows, tasks, jobs=jobs)


def as_measurements(func_rows):
    """Flat result rows -> per-method Measurement dicts."""
    return [{m: Measurement(nodes=row[f"{m}_nodes"],
                            minterms=row[f"{m}_minterms"])
             for m in METHODS} for row in func_rows]


def cache_summary(run) -> str:
    """Aggregate computed-table statistics over the worker managers
    (one per non-empty population slice)."""
    hits = misses = evictions = managers = 0
    for outcome in run.outcomes:
        stats = outcome.result["manager_stats"]
        if stats is None:
            continue
        managers += 1
        hits += stats["cache_hits"]
        misses += stats["cache_misses"]
        evictions += stats["cache_evictions"]
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    return (f"[computed table: {lookups} lookups, {rate:.0%} hit rate, "
            f"{evictions} evictions over {managers} managers]")


def summarize(rows) -> str:
    score = wins_and_ties([{k: v for k, v in row.items() if k != "F"}
                           for row in rows])
    table = []
    for method in METHODS:
        nodes = geometric_mean([max(1, row[method].nodes)
                                for row in rows])
        minterms = geometric_mean([row[method].minterms
                                   for row in rows])
        dens = geometric_mean(
            [row[method].minterms / max(1, row[method].nodes)
             for row in rows])
        wins, ties = score.get(method, (0, 0))
        table.append([method, round(nodes, 1), minterms, dens,
                      wins, ties])
    return format_table(
        ["Method", "nodes", "minterms", "density", "wins", "ties"],
        table,
        title="Table 2: Comparison of approximation methods I: "
              "Simple methods")


@pytest.mark.benchmark(group="table2")
def test_table2_simple_methods(benchmark, scale, jobs, bench_writer,
                               check_pins):
    run = benchmark.pedantic(run_engine, args=(scale, jobs),
                             rounds=1, iterations=1)
    func_rows = [row for outcome in run.outcomes
                 for row in outcome.result["rows"]]
    rows = as_measurements(func_rows)
    print()
    print(f"[population: {len(rows)} functions, jobs={run.jobs}]")
    print(summarize(rows))
    print(cache_summary(run))
    bench_writer("table2", func_rows + task_rows(run), run)
    check_pins("table2", func_rows)
    # Shape assertions from the paper: RUA is the densest simple method
    # on geometric mean and takes the most wins.
    score = wins_and_ties([{k: v for k, v in row.items() if k != "F"}
                           for row in rows])
    rua_wins = score["RUA"][0]
    assert rua_wins >= max(w for m, (w, _) in score.items()
                           if m != "RUA"), score
    dens = {m: geometric_mean([r[m].minterms / max(1, r[m].nodes)
                               for r in rows]) for m in METHODS}
    assert dens["RUA"] >= dens["F"], "RUA must be safe on average"
    assert dens["RUA"] >= dens["HB"], \
        "RUA should dominate HB on mean density"
