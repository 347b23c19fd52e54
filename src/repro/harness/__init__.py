"""Experiment harness regenerating the paper's tables.

Layout:

* :mod:`~repro.harness.population` — the Tables 2-4 function
  population, addressable as picklable specs or built entries.
* :mod:`~repro.harness.engine` — the parallel experiment engine
  (worker pool, per-task timeouts, crash capture, bounded retry).
* :mod:`~repro.harness.experiments` — the per-task experiment bodies
  shared by the benchmarks and the determinism tests.
* :mod:`~repro.harness.trajectory` — persisted ``BENCH_*.json``
  benchmark results, resume support and the Table 2–4 row pins.
* :mod:`~repro.harness.stats` / :mod:`~repro.harness.tables` —
  population statistics and fixed-width table rendering.
"""

from .engine import EngineRun, Task, TaskOutcome, resolve_jobs, run_tasks
from .population import (EntrySpec, PopulationEntry, build_entries,
                         combinational_population, combinational_specs,
                         generate_population, make_circuit,
                         population_specs, traversal_population,
                         traversal_specs)
from .stats import Measurement, denser, geometric_mean, wins_and_ties
from .tables import format_manager_stats, format_table
from .trajectory import (bench_payload, failure_rows, load_bench,
                         merge_rows, pin_mismatches, resume_tasks,
                         row_digest, spec_digest, task_rows, write_bench)

__all__ = [
    "PopulationEntry",
    "EntrySpec",
    "generate_population",
    "combinational_population",
    "traversal_population",
    "population_specs",
    "combinational_specs",
    "traversal_specs",
    "build_entries",
    "make_circuit",
    "Task",
    "TaskOutcome",
    "EngineRun",
    "resolve_jobs",
    "run_tasks",
    "bench_payload",
    "write_bench",
    "load_bench",
    "task_rows",
    "failure_rows",
    "spec_digest",
    "resume_tasks",
    "merge_rows",
    "row_digest",
    "pin_mismatches",
    "Measurement",
    "geometric_mean",
    "denser",
    "wins_and_ties",
    "format_table",
    "format_manager_stats",
]
