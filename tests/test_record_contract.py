"""What the benchmark of record reads from the package.

``benchmarks/record/workloads.py`` drives the package from outside
``src`` and reads counters, result fields and hooks by name; a rename
there would otherwise show up only as a failed benchmark run.  Each
test reads exactly what the workloads read, on a small input.
"""

from __future__ import annotations

import pytest

from repro.core.approx import remap_under_approx
from repro.fsm.benchmarks import token_ring
from repro.fsm.encode import encode
from repro.reach import (TransitionRelation, bfs_reachability,
                         high_density_reachability)
from repro.serve import Client, ServerError, ServerThread


class StepClock:
    """The record's ``checkpointer`` shape: it saves and resumes
    nothing, and only counts the hook calls."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def load(self, manager):
        self.calls.append("load")
        return None

    def step(self, roots: dict, meta: dict) -> None:
        self.calls.append("step")

    def finish(self, roots: dict, meta: dict) -> None:
        self.calls.append("finish")


def _problem():
    encoded = encode(token_ring(3))
    return (encoded.manager, TransitionRelation(encoded),
            encoded.initial_states())


def test_bfs_counters_and_hooks():
    manager, tr, init = _problem()
    steps, stats = manager.governor.steps, manager.stats
    clock = StepClock()
    run = bfs_reachability(tr, init, checkpointer=clock)
    assert clock.calls == ["load"] + ["step"] * run.iterations \
        + ["finish"]
    after = manager.stats
    assert manager.governor.steps > steps
    assert after.cache_hits + after.cache_misses \
        > stats.cache_hits + stats.cache_misses
    assert after.gc_count >= stats.gc_count
    assert after.peak_nodes >= len(run.reached) > 0
    assert tr.stats.images >= run.iterations
    assert tr.stats.peak_product_nodes > 0


def test_high_density_recoveries_and_hooks():
    _, tr, init = _problem()

    def subset(f, *, threshold=0):
        return remap_under_approx(f, threshold)

    clock = StepClock()
    run = high_density_reachability(tr, init, subset, threshold=0,
                                    checkpointer=clock)
    assert run.complete
    assert clock.calls == ["load"] + ["step"] * run.iterations \
        + ["finish"]
    assert isinstance(run.recoveries, int) and run.recoveries >= 0
    assert tr.stats.images > 0


def test_serve_stats_fields(tmp_path):
    # The flags the benchmark boots its daemon with.
    handle = ServerThread(workers=1, store=str(tmp_path / "store")).start()
    try:
        with Client(port=handle.port, timeout=120.0) as client:
            client.call("var", {"name": "a"})
            with pytest.raises(ServerError):
                client.call("frobnicate")
            stats = client.call("stats")
    finally:
        handle.stop()
    assert stats["session"]["manager"]["peak_nodes"] >= 1
    assert sum(stats["server"]["errors"].values()) == 1
