"""Checkpoint/resume equivalence: killed runs resume byte-identically.

The crash model: a traversal checkpoints every iteration and dies at an
arbitrary point (here simulated with ``max_iterations=k``, which stops
the loop *after* iteration ``k``'s checkpoint exactly like a kill -9
between iterations would).  A fresh process — new manager, new
checkpointer with ``resume=True`` — must then finish the traversal and
produce a reached set whose store content address equals an
uninterrupted oracle's.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approx import remap_under_approx
from repro.fsm import encode
from repro.fsm.benchmarks import counter, token_ring
from repro.reach import (TransitionRelation, bfs_reachability,
                         high_density_reachability)
from repro.store import BDDStore, ReachCheckpointer, StoreError
from repro.store.checkpoint import reach_spec

from ..helpers import SETTINGS, settings_manager, store_digest

SPEC = reach_spec("counter", 5, "bfs")


def traversal(setting):
    encoded = encode(counter(5), settings_manager(setting))
    return TransitionRelation(encoded), encoded.initial_states()


def run_bfs(setting, store_dir, *, resume, max_iterations=None,
            every=1):
    tr, init = traversal(setting)
    ck = ReachCheckpointer(BDDStore(store_dir), "reach/counter5",
                           every=every, spec=SPEC, resume=resume)
    result = bfs_reachability(tr, init, max_iterations=max_iterations,
                              checkpointer=ck)
    return result, ck


@pytest.mark.parametrize("setting", SETTINGS)
class TestBfsResume:
    def test_every_kill_point_resumes_identically(self, setting,
                                                  tmp_path):
        oracle = bfs_reachability(*traversal(setting))
        expected = store_digest(oracle.reached)
        # counter(5) has a diameter of 31; probe a spread of kill
        # points including first iteration and one past the fixpoint.
        for kill_at in (1, 3, 7, oracle.iterations, None):
            store_dir = tmp_path / f"kill-{kill_at}"
            partial, _ = run_bfs(setting, store_dir, resume=False,
                                 max_iterations=kill_at)
            resumed, _ = run_bfs(setting, store_dir, resume=True)
            assert store_digest(resumed.reached) == expected
            assert resumed.iterations == oracle.iterations
            assert resumed.size_trace == oracle.size_trace
            assert resumed.frontier_trace == oracle.frontier_trace
            assert resumed.complete

    def test_randomized_kill_points(self, setting, tmp_path):
        oracle = bfs_reachability(*traversal(setting))
        expected = store_digest(oracle.reached)
        rng = random.Random(2026)
        for case in range(3):
            kill_at = rng.randrange(1, oracle.iterations)
            store_dir = tmp_path / f"case-{case}"
            run_bfs(setting, store_dir, resume=False,
                    max_iterations=kill_at)
            resumed, _ = run_bfs(setting, store_dir, resume=True)
            assert store_digest(resumed.reached) == expected, kill_at

    def test_completed_checkpoint_returns_verbatim(self, setting,
                                                   tmp_path):
        full, _ = run_bfs(setting, tmp_path / "s", resume=False)
        again, ck = run_bfs(setting, tmp_path / "s", resume=True)
        assert store_digest(again.reached) == store_digest(full.reached)
        assert again.iterations == full.iterations
        # The complete flag short-circuits the loop: nothing re-saved.
        assert ck.saves == 0


def test_resume_across_backends(tmp_path):
    """A checkpoint written under one manager setting resumes under the
    other — canonical object bytes carry no node ids or cache state."""
    oracle = bfs_reachability(*traversal("array"))
    run_bfs("object", tmp_path / "s", resume=False, max_iterations=9)
    resumed, _ = run_bfs("array", tmp_path / "s", resume=True)
    assert store_digest(resumed.reached) == store_digest(oracle.reached)


def test_spec_mismatch_refuses_resume(tmp_path):
    run_bfs("array", tmp_path / "s", resume=False, max_iterations=2)
    tr, init = traversal("array")
    ck = ReachCheckpointer(BDDStore(tmp_path / "s"), "reach/counter5",
                           spec=reach_spec("different", "problem"),
                           resume=True)
    with pytest.raises(StoreError, match="different problem"):
        bfs_reachability(tr, init, checkpointer=ck)


def test_method_mismatch_refuses_resume(tmp_path):
    run_bfs("array", tmp_path / "s", resume=False, max_iterations=2)
    tr, init = traversal("array")
    ck = ReachCheckpointer(BDDStore(tmp_path / "s"), "reach/counter5",
                           spec=SPEC, resume=True)
    with pytest.raises(StoreError, match="method"):
        high_density_reachability(tr, init, remap_under_approx,
                                  checkpointer=ck)


def test_cadence_reduces_saves(tmp_path):
    full, every1 = run_bfs("array", tmp_path / "a", resume=False)
    _, every8 = run_bfs("array", tmp_path / "b", resume=False,
                        every=8)
    assert every8.saves < every1.saves
    # Coarser cadence costs extra re-traversal on resume but still
    # converges to the same set.
    run_bfs("array", tmp_path / "c", resume=False, every=8,
            max_iterations=13)
    resumed, _ = run_bfs("array", tmp_path / "c", resume=True,
                         every=8)
    assert store_digest(resumed.reached) == store_digest(full.reached)


def test_every_below_one_rejected(tmp_path):
    with pytest.raises(ValueError, match="every"):
        ReachCheckpointer(BDDStore(tmp_path / "s"), "x", every=0)


@pytest.mark.parametrize("setting", SETTINGS)
def test_high_density_resume(setting, tmp_path):
    encoded = encode(token_ring(4), settings_manager(setting))
    tr = TransitionRelation(encoded)
    init = encoded.initial_states()
    oracle = high_density_reachability(tr, init, remap_under_approx)
    spec = reach_spec("token_ring", 4, "hd")

    def run(resume, max_iterations=None):
        encoded2 = encode(token_ring(4), settings_manager(setting))
        ck = ReachCheckpointer(BDDStore(tmp_path / "s"), "reach/tr4",
                               spec=spec, resume=resume)
        return high_density_reachability(
            TransitionRelation(encoded2), encoded2.initial_states(),
            remap_under_approx, max_iterations=max_iterations,
            checkpointer=ck)

    run(False, max_iterations=2)
    resumed = run(True)
    assert store_digest(resumed.reached) == store_digest(oracle.reached)
    assert resumed.iterations == oracle.iterations
