"""Table 3: compound approximation methods C1 and C2.

C1 = RUA followed by safe minimization; C2 = SP followed by RUA
followed by safe minimization (SP threshold = the RUA result size, as
in the paper's protocol).  Checked shape properties: C1 never loses to
RUA, C2 never loses to SP, C1 retains more minterms than RUA, and C2
uses roughly half the nodes of C1.

Fanned over the experiment engine one population spec per task (see
:func:`repro.harness.experiments.compound_approx_rows`); results are
persisted to ``BENCH_table3.json``, and at quick scale every row must
match its pin in ``table_digests.json``.

Run:  pytest benchmarks/bench_table3_compound_approx.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.harness import (Measurement, Task, format_table,
                           geometric_mean, population_specs, run_tasks,
                           task_rows, wins_and_ties)
from repro.harness.experiments import (COMPOUND_METHODS,
                                       compound_approx_rows)

METHODS = COMPOUND_METHODS


def run_engine(scale, jobs):
    tasks = [Task(spec.name, (spec, scale.min_nodes))
             for spec in population_specs()]
    return run_tasks(compound_approx_rows, tasks, jobs=jobs)


def as_measurements(func_rows):
    return [{m: Measurement(nodes=row[f"{m}_nodes"],
                            minterms=row[f"{m}_minterms"])
             for m in METHODS} for row in func_rows]


def summarize(rows) -> str:
    table = []
    for method in ("C1", "C2"):
        nodes = geometric_mean([max(1, row[method].nodes)
                                for row in rows])
        minterms = geometric_mean([row[method].minterms
                                   for row in rows])
        dens = geometric_mean(
            [row[method].minterms / max(1, row[method].nodes)
             for row in rows])
        score = wins_and_ties([{m: row[m] for m in ("C1", "C2")}
                               for row in rows])
        wins, ties = score[method]
        table.append([method, round(nodes, 1), minterms, dens, wins,
                      ties])
    return format_table(
        ["Method", "nodes", "minterms", "density", "wins", "ties"],
        table,
        title="Table 3: Comparison of approximation methods II: "
              "Compound methods")


@pytest.mark.benchmark(group="table3")
def test_table3_compound_methods(benchmark, scale, jobs, bench_writer,
                                 check_pins):
    run = benchmark.pedantic(run_engine, args=(scale, jobs),
                             rounds=1, iterations=1)
    func_rows = [row for outcome in run.outcomes
                 for row in outcome.result["rows"]]
    rows = as_measurements(func_rows)
    print()
    print(f"[population: {len(rows)} functions, jobs={run.jobs}]")
    print(summarize(rows))
    bench_writer("table3", func_rows + task_rows(run), run)
    check_pins("table3", func_rows)
    # Paper shape: C1 never loses to RUA; C2 never loses to SP.
    for row in rows:
        c1_d = row["C1"].minterms * max(1, row["RUA"].nodes)
        rua_d = row["RUA"].minterms * max(1, row["C1"].nodes)
        assert c1_d >= rua_d, "C1 lost to RUA"
        c2_d = row["C2"].minterms * max(1, row["SP"].nodes)
        sp_d = row["SP"].minterms * max(1, row["C2"].nodes)
        assert c2_d >= sp_d, "C2 lost to SP"
    # C2 keeps notably fewer nodes than C1 on average (the paper's
    # halving effect).
    c1_nodes = geometric_mean([max(1, r["C1"].nodes) for r in rows])
    c2_nodes = geometric_mean([max(1, r["C2"].nodes) for r in rows])
    assert c2_nodes <= c1_nodes
