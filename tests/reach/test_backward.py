"""Backward reachability."""

from __future__ import annotations

import pytest

from repro.fsm import encode
from repro.fsm.benchmarks import counter, token_ring
from repro.reach import TransitionRelation, bfs_reachability
from repro.reach.backward import backward_reachability, can_reach

from ..helpers import (SETTINGS, TRAVERSAL_CIRCUITS, raw_frontier_traversal,
                       record_operands, settings_manager)


class TestBackward:
    def test_counter_everything_reaches_any_value(self):
        encoded = encode(counter(3))
        tr = TransitionRelation(encoded)
        five = encoded.manager.cube({"q0": True, "q1": False,
                                     "q2": True})
        result = backward_reachability(tr, five)
        # The counter wraps, so every state eventually reaches 5.
        assert result.reached.is_true \
            or result.reached.sat_count() == 2 ** encoded.manager.num_vars

    def test_forward_backward_duality(self):
        # target reachable from init  <=>  init in backward(target)
        encoded = encode(token_ring(3))
        tr = TransitionRelation(encoded)
        init = encoded.initial_states()
        forward = bfs_reachability(tr, init).reached
        some_state = encoded.manager.cube(
            {name: False for name in encoded.state_vars})
        target_reachable = not (forward & some_state).is_false
        assert can_reach(tr, init, some_state) == target_reachable

    def test_unreachable_target(self):
        # In the token ring the token is one-hot; the all-zero token
        # configuration is unreachable from reset and cannot reach it
        # backwards either (token stays one-hot under rotation).
        encoded = encode(token_ring(3))
        tr = TransitionRelation(encoded)
        init = encoded.initial_states()
        no_token = encoded.manager.cube({"t0": False, "t1": False,
                                         "t2": False})
        assert not can_reach(tr, init, no_token)

    def test_bounded_backward(self):
        encoded = encode(counter(4))
        tr = TransitionRelation(encoded)
        target = encoded.manager.cube({f"q{i}": True
                                       for i in range(4)})
        result = backward_reachability(tr, target, max_iterations=2)
        assert not result.complete
        assert result.iterations == 2

    def test_target_included(self):
        encoded = encode(counter(3))
        tr = TransitionRelation(encoded)
        target = encoded.manager.cube({"q0": True, "q1": True,
                                       "q2": True})
        result = backward_reachability(tr, target, max_iterations=1)
        assert target <= result.reached


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("make", TRAVERSAL_CIRCUITS)
class TestPreimageOperand:
    """Backward reachability preimages the smaller of the frontier and
    the reached set, with results identical to the raw-frontier loop."""

    def test_matches_raw_frontier_loop(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        target = encoded.initial_states()
        reached, iterations, sizes, frontiers = raw_frontier_traversal(
            tr.preimage, target)
        result = backward_reachability(tr, target)
        assert result.reached == reached
        assert result.iterations == iterations
        assert result.size_trace == sizes
        assert result.frontier_trace == frontiers

    def test_operand_never_exceeds_smaller_set(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        operands = record_operands(tr, "preimage")
        result = backward_reachability(tr, encoded.initial_states())
        assert len(operands) == result.iterations
        for size, new, reached in zip(operands, result.frontier_trace,
                                      result.size_trace):
            assert size <= min(new, reached)
