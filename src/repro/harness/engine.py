"""Parallel map over independent experiment tasks.

The paper's results are population-scale sweeps: Tables 2-4 run several
approximation/decomposition configurations over hundreds of functions,
Table 1 runs reachability over a circuit suite.  Every task of such a
sweep is independent, so :func:`run_tasks` maps one worker over them,
in worker *processes* when ``jobs > 1``.  BDD graphs cannot be shared
across processes; instead each task carries a small picklable payload
(typically an :class:`~repro.harness.population.EntrySpec`) from which
the worker rebuilds its slice of the population deterministically and
returns plain-data result rows.

Every ``(worker, payload)`` pair is pickled before any task runs, on
every path, and each task runs on its unpickled copy.  A lambda or
closure worker, or a payload holding a ``Manager``, a ``Function``, a
node store or a serve ``Session`` (each refuses pickling), therefore
fails the call at ``jobs=1`` exactly as at ``jobs=2``.  The run fails
fast: the first task that raises, or whose worker process dies, stops
it with a :class:`TaskError` naming the task, and tasks not yet
started never run.  ``jobs=1`` is a plain loop in this process, the
sequential reference that parallel runs must reproduce row for row.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

__all__ = [
    "Task",
    "TaskOutcome",
    "TaskError",
    "EngineRun",
    "resolve_jobs",
    "run_tasks",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: a key naming the row and a picklable payload."""

    key: str
    payload: object = None


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one task."""

    key: str
    #: the worker's return value (plain data)
    result: object
    #: wall-clock seconds of the worker call, measured where it ran
    seconds: float


@dataclass
class EngineRun:
    """All outcomes of one :func:`run_tasks` call, in task order."""

    outcomes: list[TaskOutcome]
    jobs: int
    total_seconds: float

    def results(self) -> dict[str, object]:
        """Map key -> result."""
        return {o.key: o.result for o in self.outcomes}


class TaskError(RuntimeError):
    """A task could not be shipped or failed; the run stopped there.

    The worker's own exception, if any, is the ``__cause__``.
    """


def resolve_jobs(jobs: int) -> int:
    """Worker processes for ``jobs``: itself, or all cores when <= 0."""
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def run_tasks(worker: Callable[[object], object],
              tasks: Iterable[Task], *, jobs: int = 1) -> EngineRun:
    """Run ``worker(task.payload)`` for every task; outcomes in order.

    ``worker`` must be a module-level function (pickled by reference)
    and its return value picklable plain data.  ``jobs`` is the number
    of worker processes (see :func:`resolve_jobs`); ``1`` runs every
    task inline in this process.  Raises :class:`TaskError` before any
    task runs if some ``(worker, payload)`` does not pickle, and on the
    first task that fails.
    """
    tasks = list(tasks)
    calls = [_pickled(worker, task) for task in tasks]
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    if jobs == 1:
        results = [_call_inline(task, call)
                   for task, call in zip(tasks, calls)]
    else:
        results = _pool_map(tasks, calls, jobs)
    outcomes = [TaskOutcome(task.key, result, seconds)
                for task, (result, seconds) in zip(tasks, results)]
    return EngineRun(outcomes=outcomes, jobs=jobs,
                     total_seconds=time.perf_counter() - start)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pickled(worker: Callable[[object], object], task: Task) -> bytes:
    try:
        return pickle.dumps((worker, task.payload))
    except Exception as exc:
        raise TaskError(f"task {task.key!r} cannot be pickled for a "
                        f"worker: {_describe(exc)}") from exc


def _call(call: bytes) -> tuple[object, float]:
    """Run one pickled ``(worker, payload)``; ``(result, seconds)``."""
    worker, payload = pickle.loads(call)
    begin = time.perf_counter()
    result = worker(payload)
    return result, time.perf_counter() - begin


def _call_inline(task: Task, call: bytes) -> tuple[object, float]:
    try:
        return _call(call)
    except Exception as exc:
        raise TaskError(
            f"task {task.key!r} failed: {_describe(exc)}") from exc


def _pool_map(tasks: list[Task], calls: list[bytes],
              jobs: int) -> list[tuple[object, float]]:
    """At most ``jobs`` tasks in flight on a process pool.

    A task is submitted only when a worker is free, so on a failure
    the tasks still in flight are exactly the submitted ones, and
    leaving the pool's block waits for them and stops its processes.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # Fork where the platform has it: a worker starts with every module
    # the caller loaded, test and benchmark modules included, and pays
    # no interpreter start.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    results: list[tuple[object, float]] = [(None, 0.0)] * len(tasks)
    running: dict = {}  # future -> task index

    def settle() -> None:
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in done:
            index = running.pop(future)
            try:
                results[index] = future.result()
            except BrokenProcessPool as exc:
                keys = ", ".join(repr(tasks[i].key) for i in
                                 sorted([index, *running.values()]))
                raise TaskError(f"a worker process died with task(s) "
                                f"{keys} in flight") from exc
            except Exception as exc:
                raise TaskError(f"task {tasks[index].key!r} failed: "
                                f"{_describe(exc)}") from exc

    if not tasks:
        return results
    with ProcessPoolExecutor(min(jobs, len(tasks)),
                             mp_context=context) as pool:
        for index, call in enumerate(calls):
            if len(running) == jobs:
                settle()
            running[pool.submit(_call, call)] = index
        while running:
            settle()
    return results
