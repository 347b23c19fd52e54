"""Backward reachability: states that can reach a target set.

The dual traversal to :mod:`repro.reach.bfs`, built on
:meth:`TransitionRelation.preimage`.  Used for invariant proofs from
the bad states backwards ("the reset state cannot reach bad") and for
computing controllable predecessors; combined with forward
reachability it yields the *reachable-and-relevant* core
``forward & backward`` that several of the paper's successors use to
confine approximation.
"""

from __future__ import annotations

import time

from ..bdd.function import Function
from .bfs import ReachResult, image_operand
from .transition import TransitionRelation


def backward_reachability(tr: TransitionRelation, target: Function,
                          max_iterations: int | None = None
                          ) -> ReachResult:
    """All states with a path into ``target`` (including ``target``)."""
    start = time.perf_counter()
    reached = target
    frontier = target
    iterations = 0
    size_trace = [len(reached)]
    frontier_trace = [len(frontier)]
    while not frontier.is_false:
        if max_iterations is not None and iterations >= max_iterations:
            return ReachResult(reached=reached, iterations=iterations,
                               size_trace=size_trace,
                               frontier_trace=frontier_trace,
                               seconds=time.perf_counter() - start,
                               complete=False)
        preimage = tr.preimage(image_operand(frontier, reached))
        frontier = preimage - reached
        reached = reached | frontier
        iterations += 1
        size_trace.append(len(reached))
        frontier_trace.append(len(frontier))
    return ReachResult(reached=reached, iterations=iterations,
                       size_trace=size_trace,
                       frontier_trace=frontier_trace,
                       seconds=time.perf_counter() - start)


def can_reach(tr: TransitionRelation, source: Function,
              target: Function,
              max_iterations: int | None = None) -> bool:
    """Whether some state in ``source`` has a path into ``target``."""
    result = backward_reachability(tr, target,
                                   max_iterations=max_iterations)
    return not (result.reached & source).is_false
