"""Invariant checking on top of the reachability engines.

The application the paper's introduction motivates: symbolic state
exploration for formal verification.  ``check_invariant`` proves or
refutes ``AG property`` by forward reachability, returning a concrete
counterexample trace (reset state to violating state) on failure —
extracted by the classic onion-ring walk over the saved BFS frontiers.

``hunt_invariant_violation`` is the high-density variant: dense
subsets find deep bugs without exact frontiers (no trace ring
structure, so it returns only a violating state), and an
over-approximation of the reached set can prove the invariant
*without* exact reachability when the over-approximation stays inside
the property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd.function import Function
from ..core.approx import remap_over_approx
from ..fsm.encode import EncodedCircuit
from ..reach.bfs import image_operand
from ..reach.highdensity import Subsetter, high_density_reachability
from ..reach.transition import TransitionRelation


@dataclass
class CheckResult:
    """Outcome of an invariant check."""

    holds: bool
    iterations: int
    #: reset-to-violation states (empty when the invariant holds)
    trace: list[dict[str, bool]] = field(default_factory=list)
    #: reached states explored (exact for check_invariant)
    reached: Function | None = None


def check_invariant(encoded: EncodedCircuit, tr: TransitionRelation,
                    invariant: Function,
                    max_iterations: int | None = None) -> CheckResult:
    """Exact BFS model check of ``AG invariant`` with trace extraction."""
    init = encoded.initial_states()
    bad = ~invariant
    rings = [init]
    reached = init
    iteration = 0
    violation = init & bad
    while violation.is_false:
        if max_iterations is not None and iteration >= max_iterations:
            return CheckResult(holds=True, iterations=iteration,
                               reached=reached)
        frontier = tr.image(image_operand(rings[-1], reached)) - reached
        if frontier.is_false:
            return CheckResult(holds=True, iterations=iteration,
                               reached=reached)
        reached = reached | frontier
        rings.append(frontier)
        iteration += 1
        violation = frontier & bad
    trace = _extract_trace(encoded, tr, rings, violation)
    return CheckResult(holds=False, iterations=iteration, trace=trace,
                       reached=reached)


def _extract_trace(encoded: EncodedCircuit, tr: TransitionRelation,
                   rings: list[Function],
                   violation: Function) -> list[dict[str, bool]]:
    """Onion-ring counterexample: walk backwards through the frontiers."""
    manager = encoded.manager
    state_vars = encoded.state_vars
    current = _pick_state(manager, violation, state_vars)
    trace = [current]
    for ring in reversed(rings[:-1]):
        cube = manager.cube(trace[0])
        predecessors = tr.preimage(cube) & ring
        assert not predecessors.is_false, "broken onion ring"
        trace.insert(0, _pick_state(manager, predecessors, state_vars))
    return trace


def _pick_state(manager, states: Function,
                state_vars: list[str]) -> dict[str, bool]:
    partial = states.pick_one() or {}
    return {name: partial.get(name, False) for name in state_vars}


def hunt_invariant_violation(encoded: EncodedCircuit,
                             tr: TransitionRelation,
                             invariant: Function, subset: Subsetter,
                             threshold: int = 0,
                             max_iterations: int | None = None
                             ) -> CheckResult:
    """High-density bug hunt for ``AG invariant``.

    Explores with dense frontier subsets; on violation returns one
    violating reached state (no ring structure, hence no full trace).
    Completes with an exact verdict if the traversal converges.
    """
    init = encoded.initial_states()
    bad = ~invariant
    state_vars = encoded.state_vars
    manager = encoded.manager

    result = high_density_reachability(
        tr, init, subset, threshold=threshold,
        max_iterations=max_iterations)
    violation = result.reached & bad
    if violation.is_false:
        return CheckResult(holds=result.complete,
                           iterations=result.iterations,
                           reached=result.reached)
    return CheckResult(holds=False, iterations=result.iterations,
                       trace=[_pick_state(manager, violation,
                                          state_vars)],
                       reached=result.reached)


def prove_by_over_approximation(encoded: EncodedCircuit,
                                tr: TransitionRelation,
                                invariant: Function,
                                threshold: int = 0,
                                max_iterations: int = 50
                                ) -> CheckResult | None:
    """Try to prove ``AG invariant`` with an over-approximate fixpoint.

    Each image is widened with ``remap_over_approx``; if the widened
    fixpoint stays inside the invariant, the invariant holds for the
    real system too.  Returns None when inconclusive (the
    over-approximation left the property — which does *not* refute it).
    """
    init = encoded.initial_states()
    reached = remap_over_approx(init, threshold=threshold)
    for iteration in range(max_iterations):
        if not (reached & ~invariant).is_false:
            return None  # inconclusive
        new = tr.image(reached) - reached
        if new.is_false:
            return CheckResult(holds=True, iterations=iteration,
                               reached=reached)
        reached = remap_over_approx(reached | new,
                                    threshold=threshold)
    return None
