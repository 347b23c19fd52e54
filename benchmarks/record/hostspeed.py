"""Host-speed-normalised timing.

On a shared virtual machine the same pure-Python code runs at speeds
that differ by up to 45% from one second or minute to the next, while
the process keeps its CPU the whole time (its CPU time moves with its
wall time, and the VM reports almost no stolen time).  A timing of a
few seconds inherits that drift.  A fixed *reference loop*, timed in
the same thread right next to the work, slows down with it: timed in
alternation with BDD operations, one-second means of the two correlate
at 0.92-0.96, and their ratio spreads a fifth as much as the raw time.

:class:`HostMeter` turns wall time into *normalised* time.  The
workload asks :meth:`HostMeter.due` between its steps; once at least
:data:`SAMPLE_EVERY_S` have passed, :meth:`HostMeter.cut` closes the
current segment by timing the reference loop once.  A segment's
normalised length is its wall length times :data:`NOMINAL_REF_S` over
the mean of the two reference times that bound it: the time the
segment would have taken on a host that runs the reference loop in
exactly :data:`NOMINAL_REF_S`.  The reference time itself is in
neither the wall nor the normalised total.  The loop is the
benchmark's own and calls nothing in the package, so a change to the
program moves the work's time but never the reference.
"""

from __future__ import annotations

import time

#: Normalised seconds are seconds on a host that runs one
#: :func:`reference_loop` in exactly this long (about its time on the
#: 2-vCPU Xeon VM the benchmark was recorded on).
NOMINAL_REF_S = 1e-3
#: A segment closes at the first step boundary this long after it
#: opened, so the reference loop (run twice a sample) costs about 4%
#: of a run.
SAMPLE_EVERY_S = 0.05


def reference_loop() -> int:
    """Fixed interpreter-bound work shaped like a BDD kernel's inner
    loop: integer arithmetic, tuple building and dictionary probes."""
    table: dict[int, tuple[int, int, int]] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 1009
        node = table.get(key)
        if node is None:
            node = table[key] = (key, i & 7, i >> 3)
        total += node[0] ^ node[2]
    return total


def time_reference() -> float:
    """Seconds one :func:`reference_loop` takes now.

    The loop runs once untimed first: the first run in a fresh
    interpreter takes 30-150% longer than the next.
    """
    reference_loop()
    began = time.perf_counter()
    reference_loop()
    return time.perf_counter() - began


class HostMeter:
    """Wall and normalised time per phase of a pass.

    ``began`` is the ``time.monotonic()`` reading at which the first
    segment opened and ``ref`` a reference time taken then; a pass
    opens its first phase in ``run.py`` just before the pass's
    interpreter starts.
    """

    def __init__(self, began: float, ref: float, phase: str) -> None:
        self.phase = phase
        #: phase -> [wall seconds, normalised seconds]
        self.totals: dict[str, list[float]] = {}
        self.refs: list[float] = [ref]
        self._mark = began

    def due(self) -> bool:
        """Whether the current segment is long enough to close."""
        return time.monotonic() - self._mark >= SAMPLE_EVERY_S

    def cut(self, phase: str | None = None) -> None:
        """Close the current segment; the next one opens in ``phase``
        (default: the current one)."""
        closed = time.monotonic()
        ref = time_reference()
        wall = closed - self._mark
        totals = self.totals.setdefault(self.phase, [0.0, 0.0])
        totals[0] += wall
        totals[1] += wall * NOMINAL_REF_S / ((self.refs[-1] + ref) / 2)
        self.refs.append(ref)
        if phase is not None:
            self.phase = phase
        self._mark = time.monotonic()

    def wall(self, phase: str) -> float:
        return self.totals.get(phase, [0.0, 0.0])[0]

    def normalised(self, phase: str) -> float:
        return self.totals.get(phase, [0.0, 0.0])[1]
