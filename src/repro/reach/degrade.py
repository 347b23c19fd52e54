"""The degradation ladder: turn kernel aborts into smaller images.

This is the policy layer on top of :mod:`repro.bdd.governor` that the
paper prescribes (Section 4): when an exact image computation blows its
resource budget, don't fail the traversal — substitute a dense
under-approximation of the frontier and keep going.  Dropped states are
recovered later by an exact image of the reached set, so the traversal
still terminates with the exact reachable set.

:func:`governed_image` wraps :meth:`TransitionRelation.image` with an
escalation ladder, climbed one rung per abort:

1. **gc** — collect garbage (an abort leaves rootless partial nodes
   behind; reclaiming them may alone bring the manager back under its
   node budget) and retry the exact image.
2. **subset** — replace the frontier with a dense under-approximation
   (``remap_under_approx`` by default, or the traversal's configured
   subsetter) and image that instead; on repeated aborts the size
   target halves each rung.
3. **reorder** — with ``on_blowup="retry-reorder"``, run sifting to
   shrink the operands globally and retry the exact image.
4. **exact** — compute the exact image with the governor suspended.
   This bottom rung cannot abort, so the ladder always terminates and
   ``on_blowup="subset"`` callers never see a resource exception.

Every rung taken is recorded on the manager
(:meth:`Manager.record_degradation`) and surfaces in
:attr:`ManagerStats.degradations` and benchmark trajectory rows.

The recovery sweeps of the traversals pass ``allow_subset=False``:
an image used to *detect the fixpoint* must not be under-approximated,
or a traversal could falsely conclude it converged.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, ContextManager

from ..bdd.function import Function
from ..bdd.governor import ResourceError
from .transition import PartialImagePolicy, TransitionRelation

#: Valid ``on_blowup`` policies of the traversals and the CLI.
ON_BLOWUP_MODES = ("raise", "subset", "retry-reorder")

#: An under-approximation procedure ``fn(f, *, threshold=0)`` (the
#: uniform UNDER_APPROXIMATORS signature).
Subsetter = Callable[..., Function]

#: Subset-ladder rungs tried before reorder/exact (the size target
#: halves on each, so more rungs rarely help).
MAX_SUBSET_RUNGS = 3


def validate_on_blowup(mode: str) -> str:
    """Check an ``on_blowup`` value, returning it for chaining."""
    if mode not in ON_BLOWUP_MODES:
        raise ValueError(
            f"on_blowup must be one of {ON_BLOWUP_MODES}, got {mode!r}")
    return mode


def shield(states: Function, on_blowup: str) -> ContextManager[object]:
    """Context for traversal bookkeeping ops (union, difference, ...).

    Under a degradation policy, only the *image* is governed — the
    cheap set algebra around it runs with the governor suspended, so a
    tiny budget cannot wedge the traversal in operations the ladder has
    no recovery for.  With ``on_blowup="raise"`` this is a no-op and
    every kernel stays budgeted.
    """
    if on_blowup == "raise":
        return nullcontext()
    return states.manager.governor.suspended()


def _default_subsetter() -> Subsetter:
    from ..core.approx.remap import remap_under_approx

    return remap_under_approx


def governed_image(tr: TransitionRelation, states: Function, *,
                   on_blowup: str = "subset",
                   subset: Subsetter | None = None,
                   threshold: int = 0,
                   partial: PartialImagePolicy | None = None,
                   allow_subset: bool = True,
                   frontier: Function | None = None
                   ) -> tuple[Function, bool]:
    """One image computation under the escalation ladder.

    Returns ``(image, exact)``: ``exact`` is False when a subset rung
    was taken, i.e. the result is the image of a *dense subset* of
    ``frontier`` (default ``states``) rather than of all of ``states``
    — the caller must schedule a recovery sweep before trusting a
    fixpoint.  An exact traversal that images its reached set in place
    of its frontier (:func:`~repro.reach.bfs.image_operand`) passes the
    frontier here, so a degraded image still comes from new states.

    With ``on_blowup="raise"`` the ladder is bypassed entirely and any
    governor abort propagates to the caller.
    """
    validate_on_blowup(on_blowup)
    if on_blowup == "raise":
        return tr.image(states, partial=partial), True
    manager = states.manager
    governor = manager.governor
    try:
        return tr.image(states, partial=partial), True
    except ResourceError:
        pass

    # Rung 1: reclaim the aborted attempt's rootless nodes and retry.
    manager.collect_garbage()
    manager.record_degradation("gc")
    try:
        return tr.image(states, partial=partial), True
    except ResourceError:
        pass

    if allow_subset:
        if subset is None:
            subset = _default_subsetter()
        if frontier is None:
            frontier = states
        target = threshold if threshold > 0 else max(1, len(frontier) // 2)
        for _ in range(MAX_SUBSET_RUNGS):
            with governor.suspended():
                shrunk = subset(frontier, threshold=target)
            if shrunk.is_false:
                # Degenerate subset (everything dropped): subsetting
                # cannot make progress here, fall through the ladder.
                break
            manager.record_degradation("subset")
            try:
                return tr.image(shrunk, partial=partial), False
            except ResourceError:
                frontier = shrunk
                target = max(1, target // 2)

    if on_blowup == "retry-reorder":
        with governor.suspended():
            manager.reorder()
        manager.record_degradation("reorder")
        try:
            return tr.image(states, partial=partial), True
        except ResourceError:
            pass

    # Bottom rung: exact image with the governor suspended.  Cannot
    # abort, so the ladder guarantees progress under any budget.
    manager.record_degradation("exact")
    with governor.suspended():
        return tr.image(states, partial=partial), True
