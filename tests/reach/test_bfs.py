"""Breadth-first reachability."""

from __future__ import annotations

import itertools
from collections import deque

import pytest

from repro.fsm import encode
from repro.fsm.am2910 import am2910
from repro.fsm.benchmarks import counter, shift_queue, token_ring
from repro.bdd import DeadlineExceeded
from repro.reach import (TransitionRelation, bfs_reachability,
                         count_states)

from ..helpers import (SETTINGS, TRAVERSAL_CIRCUITS, raw_frontier_traversal,
                       record_operands, settings_manager)


def explicit_reachable(circuit) -> set[tuple]:
    latch_names = sorted(latch.name for latch in circuit.latches)
    init = tuple(circuit.initial_state()[name] for name in latch_names)
    seen = {init}
    queue = deque([dict(circuit.initial_state())])
    while queue:
        state = queue.popleft()
        for bits in itertools.product([False, True],
                                      repeat=len(circuit.inputs)):
            inputs = dict(zip(circuit.inputs, bits))
            _, nxt = circuit.simulate(inputs, state)
            key = tuple(nxt[name] for name in latch_names)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
    return seen


class TestBfs:
    @pytest.mark.parametrize("make,expected", [
        (lambda: counter(4), 16),
        (lambda: counter(6), 64),
    ])
    def test_counter_reaches_everything(self, make, expected):
        encoded = encode(make())
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        result = bfs_reachability(tr, encoded.initial_states())
        assert result.complete
        assert count_states(result.reached,
                            encoded.state_vars) == expected

    @pytest.mark.parametrize("make", [lambda: token_ring(3),
                                      lambda: shift_queue(3, 2)])
    def test_matches_explicit_search(self, make):
        circuit = make()
        encoded = encode(circuit)
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        result = bfs_reachability(tr, encoded.initial_states())
        assert count_states(result.reached, encoded.state_vars) \
            == len(explicit_reachable(circuit))

    def test_iteration_counts_diameter(self):
        encoded = encode(counter(4))
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        result = bfs_reachability(tr, encoded.initial_states())
        assert result.iterations == 16  # 15 new states + 1 empty check

    def test_max_iterations_truncates(self):
        encoded = encode(counter(5))
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        result = bfs_reachability(tr, encoded.initial_states(),
                                  max_iterations=3)
        assert not result.complete
        assert count_states(result.reached, encoded.state_vars) == 4

    def test_deadline_raises(self):
        encoded = encode(shift_queue(4, 3))
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        with encoded.manager.with_budget(deadline=0.0), \
                pytest.raises(DeadlineExceeded):
            bfs_reachability(tr, encoded.initial_states())

    def test_traces_recorded(self):
        encoded = encode(counter(3))
        from repro.reach import TransitionRelation

        tr = TransitionRelation(encoded)
        result = bfs_reachability(tr, encoded.initial_states())
        assert len(result.size_trace) == result.iterations + 1
        assert result.seconds > 0


@pytest.mark.parametrize("setting", SETTINGS)
class TestImageOperand:
    """BFS images the smaller of the frontier and the reached set."""

    @pytest.mark.parametrize("make", TRAVERSAL_CIRCUITS)
    def test_matches_raw_frontier_loop(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        init = encoded.initial_states()
        reached, iterations, sizes, frontiers = raw_frontier_traversal(
            tr.image, init)
        result = bfs_reachability(tr, init)
        assert result.reached == reached
        assert result.iterations == iterations
        assert result.size_trace == sizes
        assert result.frontier_trace == frontiers

    @pytest.mark.parametrize("make", TRAVERSAL_CIRCUITS)
    def test_operand_never_exceeds_smaller_set(self, make, setting):
        encoded = encode(make(), settings_manager(setting))
        tr = TransitionRelation(encoded)
        operands = record_operands(tr, "image")
        result = bfs_reachability(tr, encoded.initial_states())
        assert len(operands) == result.iterations
        for size, new, reached in zip(operands, result.frontier_trace,
                                      result.size_trace):
            assert size <= min(new, reached)

    def test_fewer_governor_steps_than_raw_frontier(self, setting):
        def run(traverse):
            """Governor steps of one traversal on a fresh manager."""
            encoded = encode(am2910(3, 2), settings_manager(setting))
            tr = TransitionRelation(encoded)
            governor = encoded.manager.governor
            before = governor.steps
            outcome = traverse(tr, encoded.initial_states())
            return governor.steps - before, outcome

        raw_steps, _ = run(
            lambda tr, init: raw_frontier_traversal(tr.image, init))
        rule_steps, result = run(bfs_reachability)
        fired = sum(reached < new for new, reached in
                    zip(result.frontier_trace, result.size_trace))
        assert fired > 0
        assert rule_steps < raw_steps
