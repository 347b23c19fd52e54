"""Degradation ladder: traversals survive tiny budgets exactly.

The paper's pitch is that a dense subset of the frontier is an
acceptable answer to blowup; `repro.reach.degrade` turns governor
aborts into exactly that.  These tests verify the ladder rung by rung
and — the headline property — that both traversals still return the
*exact* reachable set when every image computation runs under a budget
far too small for the exact images.
"""

from __future__ import annotations

import pytest

from repro.bdd import Budget, BudgetExceeded, InjectedAbort
from repro.bdd.governor import CHECK_STRIDE
from repro.core.approx import remap_under_approx
from repro.fsm import encode
from repro.fsm.am2910 import am2910
from repro.fsm.benchmarks import token_ring
from repro.reach import (TransitionRelation, bfs_reachability, count_states,
                         high_density_reachability)
from repro.reach.degrade import (MAX_SUBSET_RUNGS, ON_BLOWUP_MODES,
                                 governed_image, shield, validate_on_blowup)

#: token_ring(3) has 192 reachable states (verified by the exact BFS
#: tests) — every traversal below must land on this number no matter
#: how hard the budget squeezes it.
TOKEN_RING_STATES = 192


def rua(f, *, threshold=0):
    return remap_under_approx(f, threshold)


def make_problem():
    enc = encode(token_ring(3))
    return enc, TransitionRelation(enc), enc.manager


class TestPolicyValidation:
    def test_modes(self):
        assert set(ON_BLOWUP_MODES) == {"raise", "subset", "retry-reorder"}
        for mode in ON_BLOWUP_MODES:
            assert validate_on_blowup(mode) == mode
        with pytest.raises(ValueError):
            validate_on_blowup("panic")
        enc, tr, _ = make_problem()
        with pytest.raises(ValueError):
            bfs_reachability(tr, enc.initial_states(), on_blowup="panic")

    def test_shield_suspends_unless_raise(self):
        # Suspension is modeled as arming an empty budget, so
        # ``governor.armed`` is the observable.
        enc, _, manager = make_problem()
        states = enc.initial_states()
        governor = manager.governor
        with manager.with_budget(step_budget=10**9):
            with shield(states, "raise"):
                assert governor.armed
            with shield(states, "subset"):
                assert not governor.armed
            assert governor.armed


class TestRaisePropagates:
    def test_governed_image_raise_mode(self):
        enc, tr, manager = make_problem()
        manager.governor.inject_abort_after(CHECK_STRIDE, op="andex")
        with pytest.raises(InjectedAbort):
            governed_image(tr, enc.initial_states(), on_blowup="raise")

    def test_traversal_default_raises(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=2_000))
        with pytest.raises(BudgetExceeded):
            bfs_reachability(tr, enc.initial_states())


class _FailingImage:
    """A tr.image stand-in that emulates a budget-bound image.

    With ``fail_calls`` the calls it lists (counted from 1) abort and
    the others succeed.  With ``fail_calls=None`` every call made
    while the governor is armed aborts — exactly the behaviour of an
    image whose budget is already exhausted, where only the ladder's
    suspended-exact bottom rung can complete.
    """

    def __init__(self, tr, fail_calls=None):
        self._tr = tr
        self.fail_calls = fail_calls
        self.calls = 0

    def image(self, states, partial=None):
        self.calls += 1
        if self.fail_calls is None:
            if states.manager.governor.armed:
                raise BudgetExceeded("stub: budget exhausted")
        elif self.calls in self.fail_calls:
            raise BudgetExceeded("stub: forced abort")
        return self._tr.image(states, partial=partial)


class TestLadder:
    def test_subset_rung_returns_inexact_image(self):
        enc, tr, manager = make_problem()
        frontier = bfs_reachability(tr, enc.initial_states()).reached
        fake = _FailingImage(tr, fail_calls={1, 2})  # try + gc retry
        image, exact = governed_image(
            fake, frontier, on_blowup="subset", subset=rua)
        assert not exact  # a subset rung produced it
        assert image <= tr.image(frontier)  # under-approximation
        degradations = manager.stats.degradations
        assert degradations["gc"] == 1 and degradations["subset"] == 1
        assert "exact" not in degradations

    def test_exact_rung_is_last_resort(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=10**9))
        frontier = bfs_reachability(tr, enc.initial_states()).reached
        fake = _FailingImage(tr)  # aborts whenever armed
        image, exact = governed_image(
            fake, frontier, on_blowup="subset", subset=rua)
        assert exact
        with manager.governor.suspended():
            assert image == tr.image(frontier)
        degradations = manager.stats.degradations
        assert degradations["exact"] == 1
        assert 1 <= degradations["subset"] <= MAX_SUBSET_RUNGS

    def test_allow_subset_false_skips_subset_rung(self):
        # Recovery sweeps must never under-approximate: a fixpoint
        # concluded from a subsetted image would be wrong.
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=10**9))
        frontier = bfs_reachability(tr, enc.initial_states()).reached
        fake = _FailingImage(tr)
        image, exact = governed_image(
            fake, frontier, on_blowup="subset", subset=rua,
            allow_subset=False)
        assert exact
        with manager.governor.suspended():
            assert image == tr.image(frontier)
        assert "subset" not in manager.stats.degradations

    def test_reorder_rung_only_in_retry_reorder(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=10**9))
        frontier = bfs_reachability(tr, enc.initial_states()).reached
        fake = _FailingImage(tr)
        governed_image(fake, frontier, on_blowup="retry-reorder",
                       subset=rua)
        assert manager.stats.degradations["reorder"] == 1


class TestTraversalsStayExact:
    """The acceptance bar: tiny budgets, exact reachable sets."""

    def test_bfs_node_budget_degrades_and_completes(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(node_budget=len(manager) + 50))
        result = bfs_reachability(tr, enc.initial_states(),
                                  on_blowup="subset")
        assert count_states(result.reached,
                            enc.state_vars) == TOKEN_RING_STATES
        assert manager.stats.total_degradations > 0
        assert manager.stats.total_aborts > 0

    def test_bfs_step_budget_climbs_full_ladder(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=2_000))
        result = bfs_reachability(tr, enc.initial_states(),
                                  on_blowup="subset")
        assert count_states(result.reached,
                            enc.state_vars) == TOKEN_RING_STATES
        degradations = manager.stats.degradations
        # GC cannot replenish a spent step window, so the ladder climbs
        # through the subset rungs down to the suspended-exact floor.
        assert degradations["subset"] > 0
        assert degradations["exact"] > 0

    def test_high_density_node_budget_degrades_and_completes(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(node_budget=len(manager) + 50))
        result = high_density_reachability(
            tr, enc.initial_states(), rua, on_blowup="subset")
        assert result.complete
        assert count_states(result.reached,
                            enc.state_vars) == TOKEN_RING_STATES
        assert manager.stats.total_degradations > 0

    def test_high_density_step_budget_climbs_full_ladder(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=2_000))
        result = high_density_reachability(
            tr, enc.initial_states(), rua, on_blowup="subset")
        assert result.complete
        assert count_states(result.reached,
                            enc.state_vars) == TOKEN_RING_STATES
        degradations = manager.stats.degradations
        assert degradations["subset"] > 0 and degradations["exact"] > 0

    def test_retry_reorder_traversal_completes(self):
        enc, tr, manager = make_problem()
        manager.governor.arm(Budget(step_budget=2_000))
        result = bfs_reachability(tr, enc.initial_states(),
                                  on_blowup="retry-reorder")
        assert count_states(result.reached,
                            enc.state_vars) == TOKEN_RING_STATES
        assert manager.stats.degradations["reorder"] > 0


class TestImageOperandUnderDegradation:
    """BFS keeps imaging the smaller of frontier and reached set through
    the ladder; a subset rung still subsets the frontier."""

    def test_subset_rung_subsets_the_frontier(self):
        # On am2910(3,2) the second image takes the reached set in
        # place of the larger frontier.  Its exact attempt and gc
        # retry (calls 2 and 3) abort, so the subset rung runs there.
        encoded = encode(am2910(3, 2))
        tr = TransitionRelation(encoded)
        init = encoded.initial_states()
        first = bfs_reachability(tr, init, max_iterations=1)
        assert first.size_trace[1] < first.frontier_trace[1]
        subsetted = []

        def recording_rua(f, *, threshold=0):
            subsetted.append(f)
            return rua(f, threshold=threshold)

        fake = _FailingImage(tr, fail_calls={2, 3})
        result = bfs_reachability(fake, init, on_blowup="subset",
                                  subset=recording_rua)
        assert subsetted[0] == first.reached - init
        assert count_states(result.reached,
                            encoded.state_vars) == 12288
        assert result.reached == bfs_reachability(tr, init).reached
