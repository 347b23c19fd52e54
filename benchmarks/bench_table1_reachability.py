"""Table 1: reachability analysis using BDD approximations.

Reproduces the protocol of the paper's Table 1: for each circuit, exact
breadth-first traversal is timed against high-density traversal with
RUA and with SP frontier subsetting, each with per-circuit tuned
parameters (threshold "Th", quality "Qual", and the partial-image
policy "PImg" — the paper likewise reports best-time parameter settings
found by trial and error).

The ISCAS-style circuits are replaced by the synthetic analogues of
DESIGN.md's substitution table:

=============  =================  ====================================
paper circuit  stand-in           behaviour reproduced
=============  =================  ====================================
s3330          checksum_memory    wide shallow comm controller; shells
                                  tie channels to a checksum
s1269          serial_multiplier  multiplication-relation frontier
                                  blow-up
s5378opt       shift_queue        control/datapath mix where SP beats
                                  RUA
am2910         am2910 model       exact BFS infeasible; high-density
                                  completes
=============  =================  ====================================

All (circuit, method) pairs map over one
:func:`repro.harness.engine.run_tasks` call: each task rebuilds its
circuit from the factory registry and executes
:func:`repro.harness.experiments.reachability_row`.  Every traversal
runs under a governor deadline (``Manager.with_budget``), and a row
past it reports no time instead of failing; the tight deadline of BFS
on the am2910 row stands in for the paper's ">2 weeks".  Any other
failure stops the table.  Results are persisted to
``BENCH_table1.json``.

Run:  pytest benchmarks/bench_table1_reachability.py --benchmark-only -s
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.harness import Task, format_table, run_tasks, task_rows
from repro.harness.experiments import reachability_row


@dataclass(frozen=True)
class Table1Row:
    """One circuit and its tuned per-method parameters."""

    paper_name: str
    factory: str
    args: tuple
    #: RUA: (threshold, quality, partial-image (trigger, threshold))
    rua: tuple
    #: SP: (threshold, partial-image)
    sp: tuple
    bfs_deadline: float
    hd_deadline: float

    def payloads(self):
        base = {"name": self.paper_name, "factory": self.factory,
                "args": self.args}
        yield dict(base, method="bfs", deadline=self.bfs_deadline)
        threshold, quality, pimg = self.rua
        yield dict(base, method="rua", threshold=threshold,
                   quality=quality, pimg=pimg,
                   deadline=self.hd_deadline)
        threshold, pimg = self.sp
        yield dict(base, method="sp", threshold=threshold, pimg=pimg,
                   deadline=self.hd_deadline)


QUICK_ROWS = (
    Table1Row("s3330", "checksum_memory", (4, 4),
              rua=(0, 1.0, None), sp=(50, None),
              bfs_deadline=120.0, hd_deadline=240.0),
    Table1Row("s1269", "serial_multiplier", (8,),
              rua=(0, 1.0, None), sp=(60, None),
              bfs_deadline=120.0, hd_deadline=240.0),
    Table1Row("s5378opt", "shift_queue", (5, 3),
              rua=(0, 1.0, None), sp=(60, None),
              bfs_deadline=120.0, hd_deadline=240.0),
    Table1Row("am2910", "am2910", (5, 3),
              rua=(0, 1.0, (20000, 8000)), sp=(150, (20000, 8000)),
              bfs_deadline=45.0, hd_deadline=300.0),
)

FULL_ROWS = (
    Table1Row("s3330", "checksum_memory", (8, 4),
              rua=(0, 1.0, (20000, 8000)), sp=(100, (20000, 8000)),
              bfs_deadline=600.0, hd_deadline=1200.0),
    Table1Row("s1269", "serial_multiplier", (8,),
              rua=(0, 1.0, None), sp=(60, None),
              bfs_deadline=600.0, hd_deadline=1200.0),
    Table1Row("s5378opt", "shift_queue", (6, 4),
              rua=(0, 1.0, None), sp=(100, None),
              bfs_deadline=600.0, hd_deadline=1200.0),
    Table1Row("am2910", "am2910", (6, 4),
              rua=(0, 0.5, (20000, 8000)), sp=(150, (20000, 8000)),
              bfs_deadline=150.0, hd_deadline=600.0),
)


def rows_for_scale() -> tuple:
    if os.environ.get("REPRO_BENCH_SCALE", "quick") == "full":
        return FULL_ROWS
    return QUICK_ROWS


def run_engine(jobs):
    tasks = [Task(f"{p['name']}/{p['method']}", p)
             for row in rows_for_scale() for p in row.payloads()]
    return run_tasks(reachability_row, tasks, jobs=jobs)


def render(rows_cfg, results) -> str:
    table = []
    fmt = lambda v: "timeout" if v is None else f"{v:.1f}"
    for cfg in rows_cfg:
        by_method = {m: results[f"{cfg.paper_name}/{m}"]
                     for m in ("bfs", "rua", "sp")}
        threshold, quality, pimg = cfg.rua
        pimg_text = "NA" if pimg is None else f"{pimg[0]}/{pimg[1]}"
        states = next((r["states"] for r in by_method.values()
                       if r.get("states") is not None), "?")
        peak = max(r["manager_stats"]["peak_nodes"]
                   for r in by_method.values())
        table.append([
            cfg.paper_name, by_method["bfs"]["ff"], states,
            fmt(by_method["bfs"]["traverse_seconds"]),
            threshold, quality, pimg_text,
            fmt(by_method["rua"]["traverse_seconds"]),
            cfg.sp[0],
            fmt(by_method["sp"]["traverse_seconds"]),
            peak,
        ])
    return format_table(
        ["Ckt", "FF", "States", "BFS time", "Th", "Qual", "PImg",
         "RUA time", "SP Th", "SP time", "Peak nodes"],
        table,
        title="Table 1: Reachability analysis results using BDD "
              "approximations")


@pytest.mark.benchmark(group="table1")
def test_table1_reachability(benchmark, jobs, bench_writer):
    run = benchmark.pedantic(run_engine, args=(jobs,),
                             rounds=1, iterations=1)
    results = run.results()
    rows_cfg = rows_for_scale()
    print()
    print(f"[{len(run.outcomes)} traversals, jobs={run.jobs}]")
    print(render(rows_cfg, results))
    bench_writer("table1", list(results.values()) + task_rows(run),
                 run)
    for cfg in rows_cfg:
        by_method = {m: results[f"{cfg.paper_name}/{m}"]
                     for m in ("bfs", "rua", "sp")}
        # High-density traversal must agree with BFS on the reachable
        # state count whenever BFS finished within its budget.
        expected = by_method["bfs"]["states"]
        for method in ("rua", "sp"):
            states = by_method[method]["states"]
            if expected is not None:
                assert states == expected, \
                    f"{cfg.paper_name}: {method} reached a different " \
                    f"state count than BFS"
        if cfg.paper_name == "am2910" and \
                os.environ.get("REPRO_BENCH_SCALE") == "full":
            assert by_method["bfs"]["traverse_seconds"] is None, \
                "full-scale am2910 BFS should exceed its budget"
