"""Invariant checking with counterexample traces."""

from __future__ import annotations

import pytest

from repro.core.approx import remap_under_approx
from repro.fsm import encode
from repro.fsm.benchmarks import counter, token_ring
from repro.reach import TransitionRelation
from repro.verify import (CheckResult, check_invariant,
                          hunt_invariant_violation,
                          prove_by_over_approximation)
from repro.verify.invariants import _extract_trace

from ..helpers import (SETTINGS, TRAVERSAL_CIRCUITS, record_operands,
                       settings_manager)


def counter_setup(width: int):
    encoded = encode(counter(width))
    tr = TransitionRelation(encoded)
    return encoded, tr


class TestCheckInvariant:
    def test_holding_invariant(self):
        encoded, tr = counter_setup(3)
        # Trivially true: some state bit is 0 or 1.
        q0 = encoded.manager.var("q0")
        result = check_invariant(encoded, tr, q0 | ~q0)
        assert result.holds
        assert result.trace == []

    def test_violation_with_trace(self):
        encoded, tr = counter_setup(3)
        # "The counter never reaches 5" is false; 5 = 101.
        manager = encoded.manager
        five = manager.cube({"q0": True, "q1": False, "q2": True})
        result = check_invariant(encoded, tr, ~five)
        assert not result.holds
        assert len(result.trace) == 6  # reset 0 .. 5, one per step
        assert result.trace[0] == {"q0": False, "q1": False,
                                   "q2": False}
        assert result.trace[-1] == {"q0": True, "q1": False,
                                    "q2": True}

    def test_trace_is_connected(self):
        encoded, tr = counter_setup(3)
        circuit = encoded.circuit
        manager = encoded.manager
        target = manager.cube({"q0": False, "q1": True, "q2": True})
        result = check_invariant(encoded, tr, ~target)
        assert not result.holds
        # Each consecutive pair must be one circuit step apart for some
        # input.
        for before, after in zip(result.trace, result.trace[1:]):
            found = False
            for en in (False, True):
                _, nxt = circuit.simulate({"en": en}, before)
                if nxt == after:
                    found = True
            assert found, (before, after)

    def test_violation_in_reset_state(self):
        encoded, tr = counter_setup(2)
        zero = encoded.manager.cube({"q0": False, "q1": False})
        result = check_invariant(encoded, tr, ~zero)
        assert not result.holds
        assert len(result.trace) == 1

    def test_max_iterations_truncates(self):
        encoded, tr = counter_setup(4)
        target = encoded.manager.cube(
            {"q0": True, "q1": True, "q2": True, "q3": True})
        result = check_invariant(encoded, tr, ~target,
                                 max_iterations=3)
        # Not enough steps to see the violation: reported as holding
        # within the bound.
        assert result.holds
        assert result.iterations == 3


class TestHunt:
    def test_finds_violation(self):
        encoded, tr = counter_setup(3)
        manager = encoded.manager
        six = manager.cube({"q0": False, "q1": True, "q2": True})
        result = hunt_invariant_violation(
            encoded, tr, ~six,
            lambda f, *, threshold=0: remap_under_approx(f, threshold))
        assert not result.holds
        assert result.trace[0] == {"q0": False, "q1": True,
                                   "q2": True}

    def test_proves_when_complete(self):
        encoded = encode(token_ring(3))
        tr = TransitionRelation(encoded)
        # The token stays one-hot: t0+t1+t2 == 1 always.
        m = encoded.manager
        t = [m.var(f"t{i}") for i in range(3)]
        one_hot = (t[0] & ~t[1] & ~t[2]) | (~t[0] & t[1] & ~t[2]) \
            | (~t[0] & ~t[1] & t[2])
        result = hunt_invariant_violation(
            encoded, tr, one_hot,
            lambda f, *, threshold=0: remap_under_approx(f, threshold))
        assert result.holds


class TestOverApproxProof:
    def test_proves_trivial_invariant(self):
        encoded, tr = counter_setup(3)
        q0 = encoded.manager.var("q0")
        result = prove_by_over_approximation(encoded, tr, q0 | ~q0)
        assert result is not None and result.holds

    def test_inconclusive_on_violated(self):
        encoded, tr = counter_setup(3)
        five = encoded.manager.cube({"q0": True, "q1": False,
                                     "q2": True})
        assert prove_by_over_approximation(encoded, tr, ~five) is None


def not_all_ones(encoded):
    """The invariant "some state bit is 0"."""
    return ~encoded.manager.cube({name: True
                                  for name in encoded.state_vars})


def raw_frontier_check(encoded, tr, invariant, bounds=None):
    """Reference onion-ring check that always images the raw ring.

    Appends ``min(|ring|, |reached|)`` of every image to ``bounds``.
    """
    init = encoded.initial_states()
    bad = ~invariant
    rings = [init]
    reached = init
    violation = init & bad
    while violation.is_false:
        if bounds is not None:
            bounds.append(min(len(rings[-1]), len(reached)))
        frontier = tr.image(rings[-1]) - reached
        if frontier.is_false:
            return CheckResult(holds=True, iterations=len(rings) - 1,
                               reached=reached)
        reached = reached | frontier
        rings.append(frontier)
        violation = frontier & bad
    return CheckResult(holds=False, iterations=len(rings) - 1,
                       trace=_extract_trace(encoded, tr, rings, violation),
                       reached=reached)


@pytest.mark.parametrize("setting", SETTINGS)
class TestRingImageOperand:
    """The onion-ring loop images the smaller of the newest ring and
    the reached set, with results identical to imaging the ring."""

    @pytest.mark.parametrize("make", TRAVERSAL_CIRCUITS)
    def test_matches_raw_frontier_check(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        invariant = not_all_ones(encoded)
        assert check_invariant(encoded, tr, invariant) \
            == raw_frontier_check(encoded, tr, invariant)

    def test_same_counterexample(self, setting):
        encoded = encode(counter(4), settings_manager(setting))
        tr = TransitionRelation(encoded)
        invariant = not_all_ones(encoded)
        result = check_invariant(encoded, tr, invariant)
        assert not result.holds
        assert len(result.trace) == 16
        assert result.trace == raw_frontier_check(encoded, tr,
                                                  invariant).trace

    @pytest.mark.parametrize("make", TRAVERSAL_CIRCUITS)
    def test_operand_never_exceeds_smaller_set(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        invariant = not_all_ones(encoded)
        bounds: list[int] = []
        raw_frontier_check(encoded, tr, invariant, bounds)
        operands = record_operands(tr, "image")
        check_invariant(encoded, tr, invariant)
        assert len(operands) == len(bounds)
        for size, bound in zip(operands, bounds):
            assert size <= bound
