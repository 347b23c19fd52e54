"""Parallel experiment engine: determinism, fault isolation, retry."""

from __future__ import annotations

import os
import time

import pytest

from repro.bdd import Budget, BudgetExceeded, Manager
from repro.harness.engine import (BUDGET, CRASHED, ERROR, OK, TIMEOUT,
                                  Task, resolve_jobs, run_tasks)
from repro.harness.experiments import (reachability_row,
                                       simple_approx_rows)
from repro.harness.population import EntrySpec

# ----------------------------------------------------------------------
# Module-level workers (must be picklable by reference)
# ----------------------------------------------------------------------


def square(payload):
    return payload * payload


def raise_on_odd(payload):
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


def sleep_for(payload):
    time.sleep(payload)
    return payload


def exit_hard(payload):
    os._exit(9)


def crash_or_square(payload):
    if payload is None:
        os._exit(9)
    return payload * payload


def succeed_after_flag(payload):
    """Fails until a sentinel file exists, then creates it and succeeds.

    Used to prove the bounded retry actually re-runs the task: the
    first attempt writes the flag and raises, the retry sees it.
    """
    flag = payload
    if os.path.exists(flag):
        return "second try"
    with open(flag, "w") as fh:
        fh.write("attempted")
    raise RuntimeError("first attempt fails")


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


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_hook(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
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
        assert run.jobs == 1 and not run.failures

    def test_pool_matches_inline(self):
        tasks = [Task(str(i), i) for i in range(8)]
        inline = run_tasks(square, tasks, jobs=1)
        pooled = run_tasks(square, tasks, jobs=2)
        assert [(o.key, o.result, o.status)
                for o in inline.outcomes] == \
               [(o.key, o.result, o.status) for o in pooled.outcomes]

    def test_results_mapping_and_raise(self):
        run = run_tasks(square, [Task("a", 3), Task("b", 4)], jobs=1)
        assert run.results() == {"a": 9, "b": 16}
        run.raise_on_failure()  # no-op without failures


class TestFaultIsolation:
    def test_error_recorded_and_run_completes(self):
        tasks = [Task(str(i), i) for i in range(4)]
        run = run_tasks(raise_on_odd, tasks, jobs=2, retries=0)
        by_key = {o.key: o for o in run.outcomes}
        assert by_key["0"].status == OK
        assert by_key["1"].status == ERROR
        assert "odd payload 1" in by_key["1"].error
        assert by_key["2"].status == OK
        with pytest.raises(RuntimeError, match="2 task\\(s\\) failed"):
            run.raise_on_failure()

    def test_timeout_kills_slow_task_only(self):
        tasks = [Task("slow", 30.0, timeout=1.0), Task("fast", 0.0)]
        start = time.perf_counter()
        run = run_tasks(sleep_for, tasks, jobs=2, retries=0)
        elapsed = time.perf_counter() - start
        by_key = {o.key: o for o in run.outcomes}
        assert by_key["slow"].status == TIMEOUT
        assert "timed out" in by_key["slow"].error
        assert by_key["fast"].status == OK
        assert elapsed < 15, "timeout did not cut the slow task short"

    def test_crash_captured_with_failing_task_recorded(self):
        tasks = [Task("boom", None), ]
        run = run_tasks(exit_hard, tasks, jobs=2, retries=0)
        outcome = run.outcomes[0]
        assert outcome.status == CRASHED
        assert outcome.error and "exit" in outcome.error.lower()

    def test_crash_does_not_poison_siblings(self):
        tasks = [Task("ok1", 2), Task("boom", None), Task("ok2", 3)]
        run = run_tasks(crash_or_square, tasks, jobs=2, retries=0)
        by_key = {o.key: o for o in run.outcomes}
        assert by_key["ok1"].result == 4
        assert by_key["ok2"].result == 9
        assert by_key["boom"].status == CRASHED

    def test_crashed_worker_is_replaced(self):
        # jobs=1 with a timeout forces a one-worker pool: the task after
        # the crash can only run on a replacement worker.
        run = run_tasks(crash_or_square, [Task("boom", None),
                                          Task("ok", 6)],
                        jobs=1, timeout=60.0, retries=0)
        assert [o.status for o in run.outcomes] == [CRASHED, OK]
        assert run.outcomes[1].result == 36

    def test_bounded_retry_then_success(self, tmp_path):
        flag = str(tmp_path / "flag")
        run = run_tasks(succeed_after_flag, [Task("t", flag)], jobs=2,
                        retries=1)
        outcome = run.outcomes[0]
        assert outcome.status == OK
        assert outcome.result == "second try"
        assert outcome.attempts == 2

    def test_retry_exhaustion_marks_failed(self):
        run = run_tasks(raise_on_odd, [Task("t", 1)], jobs=2,
                        retries=2)
        outcome = run.outcomes[0]
        assert outcome.status == ERROR
        assert outcome.attempts == 3


class TestBudgetOutcome:
    """Governor aborts are deterministic and must never be retried."""

    def test_direct_worker_raises(self, tmp_path):
        # The worker really does blow a kernel budget (sanity check
        # that the engine tests below exercise the real path).
        with pytest.raises(BudgetExceeded):
            blow_budget(str(tmp_path / "flag"))

    def test_inline_budget_not_retried(self, tmp_path):
        flag = tmp_path / "flag"
        run = run_tasks(blow_budget, [Task("t", str(flag))], jobs=1,
                        retries=3)
        outcome = run.outcomes[0]
        assert outcome.status == BUDGET
        assert outcome.attempts == 1
        assert "step budget" in outcome.error
        # The sentinel proves the worker ran exactly once.
        assert flag.read_text() == "attempt\n"
        assert run.failures == [outcome]

    def test_pool_budget_not_retried(self, tmp_path):
        flag = tmp_path / "flag"
        run = run_tasks(blow_budget,
                        [Task("t", str(flag)), Task("ok", "ok")],
                        jobs=2, retries=3)
        by_key = {o.key: o for o in run.outcomes}
        assert by_key["t"].status == BUDGET
        assert by_key["t"].attempts == 1
        assert "step budget" in by_key["t"].error
        assert flag.read_text() == "attempt\n"
        # A budget abort is an ordinary failure for siblings: the other
        # task still completes.
        assert by_key["ok"].status == OK


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
        assert not sequential.failures and not parallel.failures
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
        assert not sequential.failures and not parallel.failures
        seq = [[_strip_floats(r) for r in o.result["rows"]]
               for o in sequential.outcomes]
        par = [[_strip_floats(r) for r in o.result["rows"]]
               for o in parallel.outcomes]
        assert seq == par
        assert all(rows for rows in seq), "specs produced no entries"
