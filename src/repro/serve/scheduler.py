"""Fair execution token for CPU-bound kernel calls.

Every connection of the server runs on its own thread, and each one
calls :meth:`FairToken.run` around its session's kernel work.  The
call runs on the caller's own thread; the token only decides *when*.
Two properties matter more than raw throughput:

* **Per-session serialization** — a manager is not thread-safe, so at
  most one call per session runs at any moment.
* **Round-robin fairness across sessions** — ``workers`` permits are
  granted in arrival order to waiting sessions that are not already
  running.  A thread that finishes a call and asks again joins the
  back of the line, so a session sending a burst of requests cannot
  starve the others: with one permit, session A in a burst and session
  B sending one call, B's call runs second, not eleventh.

Kernel calls are pure Python and hold the GIL, so more permits add
fairness and overlap with protocol I/O rather than true parallelism —
the unit of concurrency stays the server process (scale-out runs
several, as ``docs/serve.md`` describes).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any, Hashable, TypeVar

__all__ = ["FairToken"]

T = TypeVar("T")


class FairToken:
    """``workers`` execution permits, granted fairly across sessions.

    ``run(key, fn, *args)`` waits for a permit for session ``key``,
    calls ``fn(*args)`` on the calling thread, hands the permit on and
    returns ``fn``'s result (or raises its exception).
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._lock = threading.Lock()
        self._free = workers
        #: sessions with a call currently running
        self._running: set[Hashable] = set()
        #: blocked callers in arrival order: (session key, a held lock
        #: that the granting thread releases)
        self._waiters: list[tuple[Hashable, Any]] = []
        #: calls completed (successfully or not) since creation
        self._dispatched = 0

    def run(self, key: Hashable, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn(*args)`` under a permit for session ``key``."""
        waiter: Any = None
        with self._lock:
            if self._free and not self._waiters \
                    and key not in self._running:
                self._free -= 1
                self._running.add(key)
            else:
                waiter = threading.Lock()
                waiter.acquire()
                self._waiters.append((key, waiter))
                self._grant()
        if waiter is not None:
            waiter.acquire()
        try:
            return fn(*args)
        finally:
            with self._lock:
                self._running.discard(key)
                self._free += 1
                self._dispatched += 1
                self._grant()

    def _grant(self) -> None:
        """Hand free permits to the oldest waiters whose session is
        idle (caller holds the lock)."""
        index = 0
        while self._free and index < len(self._waiters):
            key, waiter = self._waiters[index]
            if key in self._running:
                index += 1
                continue
            del self._waiters[index]
            self._free -= 1
            self._running.add(key)
            waiter.release()

    @property
    def dispatched(self) -> int:
        """Calls completed since creation (lock-consistent snapshot)."""
        with self._lock:
            return self._dispatched

    def pending(self, key: Hashable | None = None) -> int:
        """Calls waiting for a permit, for ``key`` or in total."""
        with self._lock:
            if key is None:
                return len(self._waiters)
            return sum(1 for k, _ in self._waiters if k == key)
