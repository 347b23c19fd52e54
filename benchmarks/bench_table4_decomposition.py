"""Table 4: comparison of decomposition methods.

For two population size classes (the paper used >= 5000 and >= 20000
nodes; the scaled defaults are >= 300 and >= 2000), apply the three
two-way conjunctive decomposition methods — Cofactor, Disjoint, Band —
and report mean shared size, mean |G|, mean |H|, and wins/ties on the
size of the larger factor.

One engine run covers both size classes: the workers return ``f_nodes``
per row (:func:`repro.harness.experiments.decomposition_rows`), so the
large class is a filter over the same rows.  The run is cached at
module level and persisted to ``BENCH_table4.json``; at quick scale
every row must match its pin in ``table_digests.json``.

Run:  pytest benchmarks/bench_table4_decomposition.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.harness import (Task, format_table, population_specs,
                           run_tasks, task_rows)
from repro.harness.experiments import DECOMP_METHODS, decomposition_rows

METHODS = DECOMP_METHODS

_RUNS: dict = {}


def run_engine(scale, jobs):
    key = (scale.name, jobs)
    if key not in _RUNS:
        tasks = [Task(spec.name, (spec, scale.min_nodes))
                 for spec in population_specs()]
        _RUNS[key] = run_tasks(decomposition_rows, tasks, jobs=jobs)
    return _RUNS[key]


def flat_rows(run) -> list[dict]:
    return [row for outcome in run.outcomes
            for row in outcome.result["rows"]]


def score_wins(rows):
    wins = {m: 0 for m in METHODS}
    ties = {m: 0 for m in METHODS}
    for row in rows:
        best = min(row[f"{m}_big"] for m in METHODS)
        top = [m for m in METHODS if row[f"{m}_big"] == best]
        if len(top) == 1:
            wins[top[0]] += 1
        else:
            for m in top:
                ties[m] += 1
    return wins, ties


def summarize(rows, title) -> str:
    wins, ties = score_wins(rows)
    table = []
    n = max(1, len(rows))
    for method in METHODS:
        mean = lambda f: sum(row[f"{method}_{f}"] for row in rows) / n
        table.append([method.capitalize(), round(mean("shared"), 1),
                      round(mean("g"), 1), round(mean("h"), 1),
                      wins[method], ties[method]])
    return format_table(
        ["Method", "Shared", "G", "H", "wins", "ties"], table,
        title=title)


@pytest.mark.benchmark(group="table4")
def test_table4_small_class(benchmark, scale, jobs, bench_writer,
                            check_pins):
    run = benchmark.pedantic(run_engine, args=(scale, jobs),
                             rounds=1, iterations=1)
    rows = [r for r in flat_rows(run)
            if r["f_nodes"] >= scale.min_nodes]
    print()
    mean_size = sum(r["f_nodes"] for r in rows) / len(rows)
    print(summarize(
        rows,
        f"Table 4 (class >= {scale.min_nodes} nodes, "
        f"|f| mean = {mean_size:.1f}, {len(rows)} BDDs)"))
    bench_writer("table4", flat_rows(run) + task_rows(run), run)
    check_pins("table4", flat_rows(run))
    wins, _ = score_wins(rows)
    # Paper shape: Cofactor takes the most wins on the full class.
    assert wins["cofactor"] >= wins["disjoint"]
    assert wins["cofactor"] >= wins["band"]


@pytest.mark.benchmark(group="table4")
def test_table4_large_class(benchmark, scale, jobs):
    run = run_engine(scale, jobs)
    entries = [r for r in flat_rows(run)
               if r["f_nodes"] >= scale.large_min_nodes]
    if len(entries) < 3:
        pytest.skip("population has too few large BDDs at this scale")
    rows = benchmark.pedantic(lambda: entries, rounds=1, iterations=1)
    print()
    mean_size = sum(r["f_nodes"] for r in rows) / len(rows)
    print(summarize(
        rows,
        f"Table 4 (class >= {scale.large_min_nodes} nodes, "
        f"|f| mean = {mean_size:.1f}, {len(rows)} BDDs)"))
