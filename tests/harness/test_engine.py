"""Parallel map: task order, fail-fast, pickling checks, determinism."""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bdd import Budget, BudgetExceeded, Manager
from repro.bdd.arraystore import ArrayStore
from repro.harness.engine import Task, TaskError, resolve_jobs, run_tasks
from repro.harness.experiments import (reachability_row,
                                       simple_approx_rows)
from repro.harness.population import EntrySpec
from repro.serve.session import Session, SessionConfig

# ----------------------------------------------------------------------
# Module-level workers (must be picklable by reference)
# ----------------------------------------------------------------------


def square(payload):
    return payload * payload


def raise_on_odd(payload):
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


def crash_or_square(payload):
    if payload is None:
        os._exit(9)
    return payload * payload


def fail_or_record(payload):
    """``(path, fail)``: raise at once, or wait a moment and append a
    line to ``path`` (the record of a task that ran)."""
    path, fail = payload
    if fail:
        raise RuntimeError("first task fails")
    time.sleep(0.5)
    with open(path, "a") as fh:
        fh.write("ran\n")


def record(payload):
    """``(path, anything)``: append a line to ``path``."""
    with open(payload[0], "a") as fh:
        fh.write("ran\n")


def blow_budget(payload):
    """Records the attempt in a sentinel file, then blows a real
    governor budget inside a kernel.  The "ok" payload succeeds."""
    if payload == "ok":
        return "ok"
    with open(payload, "a") as fh:
        fh.write("attempt\n")
    manager = Manager()
    xs = manager.add_vars(*[f"x{i}" for i in range(48)])
    f = xs[0]
    manager.governor.arm(Budget(step_budget=1))
    for i in range(1, 48):
        f = f ^ xs[i]          # enough kernel steps to hit a checkpoint
    return "unreachable"


def closure_worker():
    def handler(payload):
        return payload
    return handler


class TestResolveJobs:
    def test_default_is_sequential(self):
        assert run_tasks(square, [Task("a", 2)]).jobs == 1

    def test_argument_wins(self):
        assert resolve_jobs(3) == 3

    def test_nonpositive_means_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestInlineVsPool:
    def test_inline_results_in_task_order(self):
        run = run_tasks(square, [Task(str(i), i) for i in range(6)],
                        jobs=1)
        assert [o.key for o in run.outcomes] == [str(i)
                                                 for i in range(6)]
        assert [o.result for o in run.outcomes] == [i * i
                                                    for i in range(6)]
        assert run.jobs == 1

    def test_pool_matches_inline(self):
        tasks = [Task(str(i), i) for i in range(8)]
        inline = run_tasks(square, tasks, jobs=1)
        pooled = run_tasks(square, tasks, jobs=2)
        assert [(o.key, o.result) for o in inline.outcomes] == \
               [(o.key, o.result) for o in pooled.outcomes]
        assert pooled.jobs == 2

    def test_results_mapping_and_raise(self):
        run = run_tasks(square, [Task("a", 3), Task("b", 4)], jobs=1)
        assert run.results() == {"a": 9, "b": 16}
        with pytest.raises(TaskError):
            run_tasks(square, [Task("a", 3), Task("b", "4")], jobs=1)


class TestFaultIsolation:
    """A failed task, or a dead worker process, stops the run with a
    TaskError that names it; the calling process carries on."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_worker_names_task_and_error(self, jobs):
        tasks = [Task(str(i), i) for i in range(3)]
        with pytest.raises(TaskError, match="task '1' failed: "
                           "ValueError: odd payload 1") as excinfo:
            run_tasks(raise_on_odd, tasks, jobs=jobs)
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_not_started_never_run(self, tmp_path, jobs):
        path = tmp_path / "ran"
        tasks = [Task("first", (str(path), True))] + \
            [Task(f"t{i}", (str(path), False)) for i in range(4)]
        with pytest.raises(TaskError, match="task 'first' failed"):
            run_tasks(fail_or_record, tasks, jobs=jobs)
        # Inline nothing after the failed task runs; on the pool only
        # the one task in flight beside it finishes.
        ran = len(path.read_text().splitlines()) if path.exists() else 0
        assert ran <= jobs - 1

    def test_crash_captured_with_failing_task_recorded(self):
        # A worker process that dies fails the run instead of hanging,
        # and the error names the tasks that were in flight.
        tasks = [Task("ok1", 2), Task("boom", None), Task("ok2", 3)]
        with pytest.raises(TaskError, match="worker process died") \
                as excinfo:
            run_tasks(crash_or_square, tasks, jobs=2)
        assert "'boom'" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)


class TestPicklingChecks:
    """Whatever a worker process could not receive is refused before
    any task runs, inline as on the pool."""

    @staticmethod
    def payloads():
        manager = Manager(["a"])
        return {
            "empty-manager": Manager(),
            "manager": manager,
            "function": manager.var("a"),
            "store": ArrayStore(),
            "session": Session("s1", SessionConfig()),
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["empty-manager", "manager",
                                      "function", "store", "session"])
    def test_runtime_object_payload_refused(self, tmp_path, jobs, kind):
        path = tmp_path / "ran"
        bad = self.payloads()[kind]
        tasks = [Task("first", (str(path), None)),
                 Task("bad", (str(path), bad))]
        with pytest.raises(TaskError, match="task 'bad' cannot be "
                           "pickled") as excinfo:
            run_tasks(record, tasks, jobs=jobs)
        assert isinstance(excinfo.value.__cause__, TypeError)
        assert "cannot be pickled" in str(excinfo.value.__cause__)
        assert not path.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lambda_payload_refused(self, tmp_path, jobs):
        path = tmp_path / "ran"
        tasks = [Task("first", (str(path), None)),
                 Task("bad", (str(path), lambda spec: spec))]
        with pytest.raises(TaskError, match="task 'bad' cannot be "
                           "pickled"):
            run_tasks(record, tasks, jobs=jobs)
        assert not path.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("worker", [lambda payload: payload,
                                        closure_worker()],
                             ids=["lambda", "closure"])
    def test_unimportable_worker_refused(self, jobs, worker):
        with pytest.raises(TaskError, match="task 'a' cannot be "
                           "pickled"):
            run_tasks(worker, [Task("a", 1)], jobs=jobs)


class TestBudgetOutcome:
    """A governor abort fails the run like any error: once, no retry."""

    def test_direct_worker_raises(self, tmp_path):
        # The worker really does blow a kernel budget (sanity check
        # that the engine tests below exercise the real path).
        with pytest.raises(BudgetExceeded):
            blow_budget(str(tmp_path / "flag"))

    def test_inline_budget_not_retried(self, tmp_path):
        flag = tmp_path / "flag"
        with pytest.raises(TaskError, match="step budget") as excinfo:
            run_tasks(blow_budget, [Task("t", str(flag))], jobs=1)
        assert isinstance(excinfo.value.__cause__, BudgetExceeded)
        # The sentinel proves the worker ran exactly once.
        assert flag.read_text() == "attempt\n"

    def test_pool_budget_not_retried(self, tmp_path):
        flag = tmp_path / "flag"
        with pytest.raises(TaskError, match="task 't' failed: "
                           "BudgetExceeded: .*step budget") as excinfo:
            run_tasks(blow_budget,
                      [Task("t", str(flag)), Task("ok", "ok")], jobs=2)
        assert isinstance(excinfo.value.__cause__, BudgetExceeded)
        assert flag.read_text() == "attempt\n"


# ----------------------------------------------------------------------
# Determinism: parallel rows must equal sequential rows byte for byte
# ----------------------------------------------------------------------

def _strip_floats(row: dict) -> dict:
    """Drop wall-clock fields, the ``manager_stats`` GC pauses too;
    everything else must match exactly."""
    kept = {k: v for k, v in row.items() if not isinstance(v, float)}
    if "manager_stats" in kept:
        kept["manager_stats"] = {
            k: v for k, v in kept["manager_stats"].items()
            if not isinstance(v, float)}
    return kept


class TestDeterminism:
    @pytest.mark.slow
    def test_reachability_rows_parallel_equals_sequential(self):
        payloads = [
            {"name": "am2910", "factory": "am2910", "args": (4, 3),
             "method": "bfs", "deadline": 120.0},
            {"name": "token_ring", "factory": "token_ring",
             "args": (5,), "method": "rua", "threshold": 0,
             "quality": 1.0, "deadline": 120.0},
            {"name": "pipeline", "factory": "pipeline_controller",
             "args": (3, 4), "method": "sp", "threshold": 40,
             "deadline": 120.0},
        ]
        tasks = [Task(f"{p['name']}/{p['method']}", p)
                 for p in payloads]
        sequential = run_tasks(reachability_row, tasks, jobs=1)
        parallel = run_tasks(reachability_row, tasks, jobs=2)
        seq_rows = [_strip_floats(o.result)
                    for o in sequential.outcomes]
        par_rows = [_strip_floats(o.result) for o in parallel.outcomes]
        assert seq_rows == par_rows

    def test_approx_rows_parallel_equals_sequential(self):
        specs = [
            EntrySpec("multiplier", "mult5_bit5", (5, 5)),
            EntrySpec("dnf", "dnf_small", (14, 12, 5, 20240001)),
        ]
        tasks = [Task(s.name, (s, 30)) for s in specs]
        sequential = run_tasks(simple_approx_rows, tasks, jobs=1)
        parallel = run_tasks(simple_approx_rows, tasks, jobs=2)
        seq = [[_strip_floats(r) for r in o.result["rows"]]
               for o in sequential.outcomes]
        par = [[_strip_floats(r) for r in o.result["rows"]]
               for o in parallel.outcomes]
        assert seq == par
        assert all(rows for rows in seq), "specs produced no entries"
