"""Parallel experiment engine with per-task fault isolation.

The paper's results are population-scale sweeps: Tables 2-4 run several
approximation/decomposition configurations over hundreds of functions,
Table 1 runs reachability over a circuit suite.  Every task of such a
sweep is independent, so the engine fans them out over a pool of worker
*processes*.  BDD graphs cannot be shared across processes; instead each
task carries a small picklable payload (typically an
:class:`~repro.harness.population.EntrySpec`) from which the worker
rebuilds its slice of the population deterministically and returns
plain-data result rows.

Fault isolation
---------------
A worker owns nothing the parent needs: when a task misbehaves, the
parent

* enforces a per-task **wall-clock timeout** (the worker process is
  terminated and replaced),
* captures **crashed workers** (a worker that dies without reporting —
  segfault, ``os._exit``, OOM kill — is detected through its process
  sentinel), and
* grants a **bounded retry** (``retries`` extra attempts) before the
  row is marked failed; the failing payload's key stays in the result
  set either way, so a sweep never silently drops rows, and
* records in-process **governor aborts**
  (:class:`~repro.bdd.governor.ResourceError`: node/step budget or
  deadline exceeded inside a kernel) as typed ``budget`` failure rows
  *without* retrying — a deterministic blow-up re-runs identically, so
  retries would only burn the bounded attempts that crash/timeout rows
  need.

Concurrency is selected with ``jobs`` (or the ``REPRO_BENCH_JOBS``
environment variable, see :func:`resolve_jobs`).  With ``jobs=1`` and no
timeout the engine degrades to a plain in-process loop — the sequential
reference path that parallel runs must reproduce row for row.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections

from ..bdd.governor import ResourceError

__all__ = [
    "Task",
    "TaskOutcome",
    "EngineRun",
    "WorkerPool",
    "resolve_jobs",
    "run_tasks",
]

#: Outcome statuses.
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
CRASHED = "crashed"
#: An in-process governor abort (BudgetExceeded/DeadlineExceeded).
#: Deterministic, so never retried — see `run_tasks`.
BUDGET = "budget"


@dataclass(frozen=True)
class Task:
    """One unit of work: a key naming the row and a picklable payload."""

    key: str
    payload: object = None
    #: per-task wall-clock budget in seconds, overriding the engine-wide
    #: ``timeout`` (None: inherit)
    timeout: float | None = None


@dataclass
class TaskOutcome:
    """Result row of one task, successful or not."""

    key: str
    status: str
    #: the worker's return value (plain data); None unless status is ok
    result: object = None
    #: wall-clock seconds of the last attempt (in the worker for ok and
    #: error rows, as observed by the parent for timeouts and crashes)
    seconds: float = 0.0
    #: attempts consumed (1 = first try succeeded)
    attempts: int = 1
    #: diagnostic for failed rows (exception text, timeout note, ...)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class EngineRun:
    """All outcomes of one engine invocation, in task order."""

    outcomes: list[TaskOutcome]
    jobs: int
    total_seconds: float

    @property
    def failures(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def results(self) -> dict[str, object]:
        """Map key -> result for the successful rows."""
        return {o.key: o.result for o in self.outcomes if o.ok}

    def raise_on_failure(self) -> "EngineRun":
        """Assert-style helper: error out unless every row succeeded."""
        if self.failures:
            detail = "; ".join(f"{o.key}: {o.status} ({o.error})"
                               for o in self.failures)
            raise RuntimeError(f"{len(self.failures)} task(s) failed: "
                               f"{detail}")
        return self


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count from an explicit value or the environment.

    Resolution order: explicit ``jobs`` argument, then the
    ``REPRO_BENCH_JOBS`` environment variable, then 1 (sequential).
    Zero or negative values mean "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_BENCH_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_BENCH_JOBS must be an integer, got {env!r}")
    if jobs is None:
        return 1
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def run_tasks(worker: Callable[[object], object],
              tasks: Iterable[Task],
              *,
              jobs: int | None = None,
              timeout: float | None = None,
              retries: int = 1,
              start_method: str | None = None) -> EngineRun:
    """Run ``worker(task.payload)`` for every task, possibly in parallel.

    Parameters
    ----------
    worker:
        Callable executed once per task.  Under multiprocessing it runs
        in a forked worker, so it must not depend on parent-side mutable
        state; its return value must be picklable plain data.
    tasks:
        The work list.  Outcomes come back in the same order.
    jobs:
        Worker processes (see :func:`resolve_jobs`).  ``1`` with no
        timeout runs everything inline in this process.
    timeout:
        Per-task wall-clock budget in seconds (None: unlimited).  A task
        exceeding it has its worker terminated; with ``jobs=1`` a
        timeout still forces a single worker subprocess so the budget is
        enforceable.
    retries:
        Extra attempts granted to a failing task before its row is
        marked failed.  Budget rows (a governor
        :class:`~repro.bdd.governor.ResourceError` escaping the worker)
        are exempt: the abort is deterministic, so the row settles as
        ``budget`` on the first attempt.
    start_method:
        Multiprocessing start method; default prefers ``fork`` (workers
        inherit the parent's imported modules, so worker callables
        defined in scripts and benchmark modules stay reachable).
    """
    tasks = list(tasks)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    if jobs <= 1 and timeout is None and \
            all(t.timeout is None for t in tasks):
        outcomes = [_run_inline(worker, task, retries) for task in tasks]
        return EngineRun(outcomes=outcomes, jobs=1,
                         total_seconds=time.perf_counter() - start)
    with WorkerPool(worker, jobs=jobs, timeout=timeout, retries=retries,
                    start_method=start_method) as pool:
        return pool.run(tasks)


# ----------------------------------------------------------------------
# Sequential reference path
# ----------------------------------------------------------------------

def _run_inline(worker, task: Task, retries: int) -> TaskOutcome:
    outcome = None
    for attempt in range(1, retries + 2):
        begin = time.perf_counter()
        try:
            result = worker(task.payload)
        except ResourceError as exc:
            # Deterministic in-process abort: re-running would blow the
            # same budget again, so settle without consuming retries.
            return TaskOutcome(
                key=task.key, status=BUDGET,
                seconds=time.perf_counter() - begin, attempts=attempt,
                error=_format_exception(exc))
        except Exception as exc:
            outcome = TaskOutcome(
                key=task.key, status=ERROR,
                seconds=time.perf_counter() - begin, attempts=attempt,
                error=_format_exception(exc))
        else:
            return TaskOutcome(key=task.key, status=OK, result=result,
                               seconds=time.perf_counter() - begin,
                               attempts=attempt)
    return outcome


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc),
                                                   exc)).strip()


# ----------------------------------------------------------------------
# Multiprocessing pool with fault isolation
# ----------------------------------------------------------------------

def _worker_main(worker, conn) -> None:
    """Worker loop: receive payloads, send (status, result, s, error)."""
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        begin = time.perf_counter()
        try:
            result = worker(item)
            message = (OK, result, time.perf_counter() - begin, None)
        except ResourceError as exc:
            message = (BUDGET, None, time.perf_counter() - begin,
                       _format_exception(exc))
        except BaseException as exc:
            message = (ERROR, None, time.perf_counter() - begin,
                       _format_exception(exc))
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:
            # The result itself refused to pickle; the row fails but the
            # worker survives for the next task.
            conn.send((ERROR, None, time.perf_counter() - begin,
                       f"result not picklable: {exc!r}"))


class _Worker:
    """Parent-side handle: one process, one duplex pipe, one task slot."""

    __slots__ = ("conn", "process", "index", "attempt", "started",
                 "deadline")

    def __init__(self, ctx, worker_fn) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main,
                                   args=(worker_fn, child), daemon=True)
        self.process.start()
        child.close()
        self.index: int | None = None

    def assign(self, index: int, payload: object, attempt: int,
               timeout: float | None) -> None:
        self.index = index
        self.attempt = attempt
        self.started = time.perf_counter()
        self.deadline = None if timeout is None \
            else self.started + timeout
        self.conn.send(payload)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def stop(self) -> None:
        """Graceful shutdown of an idle worker."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.kill(grace=2.0)

    def kill(self, grace: float = 0.0) -> None:
        """Hard shutdown; escalates terminate -> kill."""
        if grace:
            self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


def _pick_start_method(requested: str | None) -> str:
    if requested is not None:
        return requested
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class WorkerPool:
    """A persistent pool of worker processes with fault isolation.

    A ``WorkerPool`` keeps its worker processes alive across
    :meth:`run` calls, so state a worker builds once (a manager, a
    transition relation, warm caches) serves every later batch;
    :func:`run_tasks` runs a single batch on a throwaway pool.

    The pool is lazy: workers are spawned on first use, never more than
    ``jobs`` of them, and a worker killed for a timeout or crash is
    replaced on the spot.  :meth:`run` preserves the :func:`run_tasks`
    semantics exactly (same statuses, same retry policy, same task
    ordering of the outcome list).

    Use as a context manager, or call :meth:`close` — an abandoned pool
    would otherwise keep daemon processes alive until interpreter exit.
    """

    def __init__(self, worker: Callable[[object], object], *,
                 jobs: int | None = None,
                 timeout: float | None = None,
                 retries: int = 1,
                 start_method: str | None = None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.worker = worker
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.retries = retries
        self._ctx = multiprocessing.get_context(
            _pick_start_method(start_method))
        self._workers: list[_Worker] = []
        self._closed = False

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (spawn order)."""
        return [w.process.pid for w in self._workers
                if w.process.is_alive()]

    def run(self, tasks: Iterable[Task],
            timeout: float | None = None) -> EngineRun:
        """Run every task on the pool; workers stay warm afterwards.

        ``timeout`` overrides the pool-wide default for this run only
        (per-task ``Task.timeout`` still wins).  If the run is aborted
        by an exception, every busy worker is killed — a worker stuck
        mid-task cannot be reused — and idle ones survive.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        start = time.perf_counter()
        run_timeout = self.timeout if timeout is None else timeout
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        #: (task index, attempt number) still to dispatch
        pending: deque[tuple[int, int]] = deque(
            (i, 1) for i in range(len(tasks)))
        workers = self._workers

        def task_timeout(task: Task) -> float | None:
            return run_timeout if task.timeout is None else task.timeout

        def settle(w: _Worker, status: str, *, result=None,
                   seconds=None, error=None) -> None:
            """Record one attempt's outcome, or requeue it for a retry.

            Budget rows never requeue: a governor abort is
            deterministic (same payload, same budget, same abort),
            unlike the transient failures — crash, timeout — the
            bounded retry exists for.
            """
            index, attempt = w.index, w.attempt
            w.index = None
            if status not in (OK, BUDGET) and attempt <= self.retries:
                pending.append((index, attempt + 1))
                return
            outcomes[index] = TaskOutcome(
                key=tasks[index].key, status=status, result=result,
                seconds=w.elapsed() if seconds is None else seconds,
                attempts=attempt, error=error)

        try:
            while pending or any(w.index is not None for w in workers):
                # Keep the pool at strength while work is dispatchable.
                idle = sum(w.index is None for w in workers)
                while len(workers) < self.jobs and idle < len(pending):
                    workers.append(_Worker(self._ctx, self.worker))
                    idle += 1
                for w in workers:
                    if w.index is None and pending:
                        index, attempt = pending.popleft()
                        w.assign(index, tasks[index].payload, attempt,
                                 task_timeout(tasks[index]))

                busy = [w for w in workers if w.index is not None]
                if not busy:
                    continue
                now = time.perf_counter()
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                wait_for = max(0.0, min(deadlines) - now) if deadlines \
                    else None
                ready = set(_wait_connections(
                    [w.conn for w in busy] + [w.process.sentinel
                                              for w in busy],
                    timeout=wait_for))

                now = time.perf_counter()
                for i, w in enumerate(workers):
                    if w.index is None:
                        continue
                    if w.conn in ready:
                        try:
                            status, result, seconds, error = \
                                w.conn.recv()
                        except (EOFError, OSError):
                            # Worker died while (or instead of)
                            # reporting.
                            settle(w, CRASHED,
                                   error=_crash_note(w.process))
                            w.kill()
                            workers[i] = _Worker(self._ctx, self.worker)
                        else:
                            settle(w, status, result=result,
                                   seconds=seconds, error=error)
                        continue
                    if w.deadline is not None and now >= w.deadline:
                        budget = task_timeout(tasks[w.index])
                        settle(w, TIMEOUT,
                               error=f"timed out after {budget:.1f}s")
                        w.kill()
                        workers[i] = _Worker(self._ctx, self.worker)
                        continue
                    if w.process.sentinel in ready and \
                            not w.process.is_alive():
                        if w.conn.poll():
                            # The result beat the death notice through
                            # the pipe; pick it up on the next turn.
                            continue
                        settle(w, CRASHED, error=_crash_note(w.process))
                        w.kill()
                        workers[i] = _Worker(self._ctx, self.worker)
        except BaseException:
            # Busy workers hold stale assignments and unread pipes;
            # none of them can be trusted for the next run.
            self._discard_workers()
            raise
        return EngineRun(outcomes=outcomes, jobs=self.jobs,
                         total_seconds=time.perf_counter() - start)

    def _discard_workers(self) -> None:
        workers, self._workers = self._workers, []
        for w in workers:
            if w.index is None and w.process.is_alive():
                w.stop()
            else:
                w.kill()

    def close(self) -> None:
        """Shut every worker down; the pool cannot be reused."""
        self._closed = True
        self._discard_workers()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _crash_note(process) -> str:
    code = process.exitcode
    return (f"worker process died without reporting "
            f"(exitcode={code})")
