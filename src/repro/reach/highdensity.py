"""High-density reachability analysis (Ravi–Somenzi, ICCAD 95).

The traversal the paper accelerates with RUA (Section 4): a mixed
depth-first/breadth-first exploration where every image computation is
fed a *dense subset* extracted from the newly found states instead of
the full frontier.  Frontier BDDs stay small (high density) at the
price of more iterations.

States dropped by the subsetting are usually rediscovered by later
images; stragglers are recovered when the dense frontier dries out by
one exact image of the reached set (cheap near the fixpoint, where the
reached-set BDD is smooth), so the traversal terminates with the
**exact** reachable set — as in the completed runs of Table 1.

Optionally, intermediate image products are subsetted as well (the
paper's partial-image "PImg" mechanism).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..bdd.counting import density
from ..bdd.function import Function
from .bfs import ReachResult, TraversalLimit
from .degrade import Subsetter, governed_image, shield, validate_on_blowup
from .transition import PartialImagePolicy, TransitionRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.checkpoint import ReachCheckpointer


@dataclass
class HighDensityResult(ReachResult):
    """Reachability result with high-density-specific statistics."""

    #: density of each dense subset handed to image computation
    subset_densities: list[float] = field(default_factory=list)
    #: number of exact-image recovery sweeps at frontier dry-out
    recoveries: int = 0


def high_density_reachability(
        tr: TransitionRelation, init: Function, subset: Subsetter,
        threshold: int = 0,
        partial: PartialImagePolicy | None = None,
        max_iterations: int | None = None,
        deadline: float | None = None,
        on_blowup: str = "raise",
        checkpointer: "ReachCheckpointer | None" = None
        ) -> HighDensityResult:
    """High-density traversal computing the exact reachable set.

    Parameters
    ----------
    subset:
        The approximation procedure extracting a dense subset from the
        new states — any ``UNDER_APPROXIMATORS`` entry or callable with
        the registry's ``fn(f, *, threshold=0)`` signature.
    threshold:
        Size threshold handed to ``subset`` (the paper's "Th" column).
    partial:
        Optional partial-image subsetting policy (the "PImg" column).
    on_blowup:
        Reaction to governor aborts (budgets armed via
        :meth:`Manager.with_budget`): ``"raise"`` propagates them;
        ``"subset"``/``"retry-reorder"`` degrade blowing-up images
        through the :mod:`repro.reach.degrade` escalation ladder using
        this traversal's own ``subset``/``threshold``.  Recovery images
        never subset, so the final reached set stays exact.
    checkpointer:
        Optional :class:`~repro.store.checkpoint.ReachCheckpointer`
        persisting the loop state every few iterations; resumed runs
        produce a byte-identical reached set (see
        :func:`~repro.reach.bfs.bfs_reachability` and
        ``docs/persistence.md``).
    """
    validate_on_blowup(on_blowup)
    start = time.perf_counter()
    reached = init
    new = init
    iterations = 0
    recoveries = 0
    size_trace = [len(reached)]
    frontier_trace: list[int] = []
    densities: list[float] = []

    if checkpointer is not None:
        loaded = checkpointer.load(init.manager)
        if loaded is not None:
            roots, meta = loaded
            if meta.get("method") != "hd":
                from ..store.errors import StoreError
                raise StoreError(
                    f"checkpoint {checkpointer.name!r} belongs to "
                    f"method {meta.get('method')!r}, not hd")
            reached = roots["reached"]
            new = roots["new"]
            iterations = int(meta["iterations"])
            recoveries = int(meta["recoveries"])
            size_trace = [int(n) for n in meta["size_trace"]]
            frontier_trace = [int(n) for n in meta["frontier_trace"]]
            densities = [float(d) for d in meta["densities"]]
            if meta.get("complete"):
                return _result(reached, iterations, size_trace,
                               frontier_trace, densities, recoveries,
                               start, complete=True)

    def save_state(save: "Callable[..., None]") -> None:
        save({"reached": reached, "new": new},
             {"method": "hd", "iterations": iterations,
              "recoveries": recoveries, "size_trace": size_trace,
              "frontier_trace": frontier_trace,
              "densities": densities})

    while True:
        if new.is_false:
            # Dense frontiers dried out: recover dropped states with one
            # exact image of the reached set (never subsetted — an
            # approximate recovery image could falsely conclude the
            # fixpoint was reached).
            image, _ = governed_image(tr, reached, on_blowup=on_blowup,
                                      allow_subset=False)
            with shield(reached, on_blowup):
                new = image - reached
                if new.is_false:
                    break
                recoveries += 1
                reached = reached | new
        if max_iterations is not None and iterations >= max_iterations:
            return _result(reached, iterations, size_trace,
                           frontier_trace, densities, recoveries,
                           start, complete=False)
        with shield(new, on_blowup):
            frontier = subset(new, threshold=threshold)
        if frontier.is_false:
            # Degenerate subset: fall back to the full new set so the
            # traversal always makes progress.
            frontier = new
        frontier_trace.append(len(frontier))
        densities.append(density(frontier))
        image, _exact = governed_image(tr, frontier, on_blowup=on_blowup,
                                       subset=subset, threshold=threshold,
                                       partial=partial)
        with shield(frontier, on_blowup):
            new = image - reached
            reached = reached | new
        iterations += 1
        size_trace.append(len(reached))
        if checkpointer is not None:
            save_state(checkpointer.step)
        if deadline is not None and \
                time.perf_counter() - start > deadline:
            raise TraversalLimit(
                f"deadline {deadline}s exceeded at iteration "
                f"{iterations}")
    if checkpointer is not None:
        save_state(checkpointer.finish)
    return _result(reached, iterations, size_trace, frontier_trace,
                   densities, recoveries, start, complete=True)


def _result(reached: Function, iterations: int, size_trace: list[int],
            frontier_trace: list[int], densities: list[float],
            recoveries: int, start: float, complete: bool
            ) -> HighDensityResult:
    return HighDensityResult(
        reached=reached, iterations=iterations, size_trace=size_trace,
        frontier_trace=frontier_trace,
        seconds=time.perf_counter() - start, complete=complete,
        subset_densities=densities, recoveries=recoveries)
