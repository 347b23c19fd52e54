"""Exact breadth-first symbolic reachability (the paper's baseline)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..bdd.function import Function
from .degrade import Subsetter, governed_image, shield, validate_on_blowup
from .transition import TransitionRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.checkpoint import ReachCheckpointer


@dataclass
class ReachResult:
    """Outcome of a reachability run."""

    reached: Function
    iterations: int
    #: |reached| per iteration
    size_trace: list[int] = field(default_factory=list)
    #: |frontier| per iteration
    frontier_trace: list[int] = field(default_factory=list)
    seconds: float = 0.0
    complete: bool = True


def count_states(reached: Function, state_vars: list[str]) -> int:
    """Number of states in a reached set over the given state bits."""
    manager = reached.manager
    # sat_count over all manager variables, then divide by the free ones.
    total = reached.sat_count()
    free = manager.num_vars - len(state_vars)
    return total >> free


def image_operand(new: Function, reached: Function) -> Function:
    """The set an exact traversal images next: ``reached`` when it has
    strictly fewer nodes than ``new``, otherwise ``new``.

    Both give the same next frontier.  Let ``new_k ⊆ R_k`` be the
    frontier and reached set after step ``k``.  ``R_{k-1}`` is the
    union of the earlier frontiers, each imaged exactly, so
    ``Img(R_{k-1}) ⊆ R_k``.  Hence for any ``F`` with
    ``new_k ⊆ F ⊆ R_k``, the part ``F - new_k ⊆ R_{k-1}`` adds only
    states already in ``R_k``, and ``Img(F) - R_k = Img(new_k) - R_k``.
    This is the paper's don't-care remapping (Section 2) with the
    reached states as the don't-cares, and it holds for preimages
    alike.  The equality needs every earlier image exact.  After a
    degraded step (the image of a subset of a frontier) imaging
    ``reached`` can only add more states, all of them reachable, and
    the traversal still confirms its fixpoint with an exact image of
    ``reached``.  High-density traversal keeps states it never imaged
    in ``reached``, so it images ``new``.  Both sizes are memoized per
    root, so the choice costs no BDD operation.
    """
    return reached if len(reached) < len(new) else new


def bfs_reachability(tr: TransitionRelation, init: Function,
                     max_iterations: int | None = None, *,
                     on_blowup: str = "raise",
                     subset: Subsetter | None = None,
                     subset_threshold: int = 0,
                     checkpointer: "ReachCheckpointer | None" = None
                     ) -> ReachResult:
    """Classic breadth-first fixpoint: reached = lfp(init | image).

    Each step images :func:`image_operand` of the frontier and the
    reached set; the traces and checkpoints record the frontier.

    A wall-clock bound is a governor deadline
    (``Manager.with_budget(deadline=...)``): like every governor abort
    it raises out of the traversal under ``on_blowup="raise"``.

    ``on_blowup`` selects the reaction to a *governor* abort (armed via
    :meth:`Manager.with_budget`): ``"raise"`` (default) propagates it;
    ``"subset"``/``"retry-reorder"`` climb the escalation ladder of
    :mod:`repro.reach.degrade` — a budget-busting image retries on a
    dense under-approximation of the frontier (``subset``, default RUA,
    at ``subset_threshold``).  Frontiers degraded that way may miss
    successors, so before accepting a fixpoint the traversal runs exact
    recovery images of the reached set; the final reached set is exact
    either way.

    ``checkpointer`` persists the loop state (reached set, frontier,
    traces) to an on-disk store every few iterations and, when its
    ``resume`` flag is set, restarts the loop from the last saved
    state; because every BDD operation is canonical, a resumed
    traversal produces a byte-identical reached set and identical
    traces (see ``docs/persistence.md``).
    """
    validate_on_blowup(on_blowup)
    start = time.perf_counter()
    reached = init
    frontier = init
    iterations = 0
    degraded = False
    size_trace: list[int] = [len(reached)]
    frontier_trace: list[int] = [len(frontier)]
    if checkpointer is not None:
        loaded = checkpointer.load(init.manager)
        if loaded is not None:
            roots, meta = loaded
            if meta.get("method") != "bfs":
                from ..store.errors import StoreError
                raise StoreError(
                    f"checkpoint {checkpointer.name!r} belongs to "
                    f"method {meta.get('method')!r}, not bfs")
            reached = roots["reached"]
            frontier = roots["frontier"]
            iterations = int(meta["iterations"])
            degraded = bool(meta["degraded"])
            size_trace = [int(n) for n in meta["size_trace"]]
            frontier_trace = [int(n) for n in meta["frontier_trace"]]
            if meta.get("complete"):
                # The previous run already reached the fixpoint (it was
                # killed after its final save): return it verbatim.
                return ReachResult(
                    reached=reached, iterations=iterations,
                    size_trace=size_trace,
                    frontier_trace=frontier_trace,
                    seconds=time.perf_counter() - start)
    while True:
        if frontier.is_false:
            if not degraded:
                break
            # Subsetted frontiers may have missed successors: confirm
            # the fixpoint with an exact image of the reached set
            # (allow_subset=False — approximating the recovery image
            # could falsely conclude convergence).
            image, _ = governed_image(tr, reached, on_blowup=on_blowup,
                                      allow_subset=False)
            with shield(reached, on_blowup):
                frontier = image - reached
                if frontier.is_false:
                    break
                reached = reached | frontier
            degraded = False
            size_trace.append(len(reached))
            frontier_trace.append(len(frontier))
        if max_iterations is not None and iterations >= max_iterations:
            return ReachResult(reached=reached, iterations=iterations,
                               size_trace=size_trace,
                               frontier_trace=frontier_trace,
                               seconds=time.perf_counter() - start,
                               complete=False)
        image, exact = governed_image(tr, image_operand(frontier, reached),
                                      on_blowup=on_blowup,
                                      subset=subset,
                                      threshold=subset_threshold,
                                      frontier=frontier)
        if not exact:
            degraded = True
        with shield(frontier, on_blowup):
            frontier = image - reached
            reached = reached | frontier
        iterations += 1
        size_trace.append(len(reached))
        frontier_trace.append(len(frontier))
        if checkpointer is not None:
            checkpointer.step(
                {"reached": reached, "frontier": frontier},
                {"method": "bfs", "iterations": iterations,
                 "degraded": degraded, "size_trace": size_trace,
                 "frontier_trace": frontier_trace})
    if checkpointer is not None:
        checkpointer.finish(
            {"reached": reached, "frontier": frontier},
            {"method": "bfs", "iterations": iterations,
             "degraded": degraded, "size_trace": size_trace,
             "frontier_trace": frontier_trace})
    return ReachResult(reached=reached, iterations=iterations,
                       size_trace=size_trace,
                       frontier_trace=frontier_trace,
                       seconds=time.perf_counter() - start)
