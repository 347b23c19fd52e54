"""remapUnderApprox (RUA) — the paper's new safe under-approximation.

Three passes (Figure 2):

1. *analyze* — minterm counts and reference counts per node.
2. *markNodes* (Figure 3) — a top-down, level-ordered traversal that
   tries, for each node, the three replacement types in order — *remap*,
   *replace-by-grandchild*, *replace-by-0* — and accepts the first
   applicable one iff it improves the estimated density by more than the
   *quality* factor.  Minterms lost are counted exactly via path flows;
   node savings are a lower bound from the Figure-4 dominator sweep.
3. *buildResult* — a memoized bottom-up rebuild applying the accepted
   replacements.

With ``quality >= 1`` the algorithm is *safe* (Definition 1):
``density(rua(f)) >= density(f)``.

All passes manipulate int node ids (compared with ``==``, never
``is``) and index the store's ``level``/``hi``/``lo`` columns directly;
the terminals are the ids 0 and 1.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from ...bdd.function import Function
from ...bdd.governor import CHECK_STRIDE
from ...bdd.manager import Manager
from ...bdd.operations import leq_node

# Strided governor-checkpoint mask (see repro.bdd.operations).
_MASK = CHECK_STRIDE - 1
from .info import (REPLACE_GRANDCHILD, REPLACE_REMAP, REPLACE_ZERO,
                   ApproxInfo, add_flow, analyze, apply_death, child_flow,
                   nodes_saved)


@dataclass
class Replacement:
    """A candidate replacement for one node (result of findReplacement)."""

    kind: str
    #: exact number of minterms of f lost if accepted
    lost: int
    #: lower bound on the number of nodes saved (may be <= 0)
    saved: int
    #: nodes that die if accepted
    dead: set[int]
    #: surviving function root the node is remapped to (remap only)
    kept: int | None = None
    #: (child level, use_then_branch, shared grandchild) for grandchild
    grandchild: tuple[int, bool, int] | None = None


#: All replacement types, in the order findReplacement tries them.
ALL_REPLACEMENTS = (REPLACE_REMAP, REPLACE_GRANDCHILD, REPLACE_ZERO)


def remap_under_approx(f: Function, threshold: int = 0,
                       quality: float = 1.0,
                       replacements: tuple = ALL_REPLACEMENTS
                       ) -> Function:
    """Safe under-approximation of ``f`` (the paper's RUA).

    Parameters
    ----------
    threshold:
        Stop replacing once the estimated result size drops to this many
        nodes.  ``0`` lets the algorithm shrink the BDD as long as each
        step improves density (the setting used for most of the paper's
        experiments).
    quality:
        Minimum density ratio for accepting a replacement.  ``1.0``
        accepts only density-improving replacements (safe); values above
        1 are more conservative, below 1 more aggressive.
    replacements:
        The replacement types findReplacement may use, for ablation
        studies (default: all three of the paper's types).
    """
    manager, root = f.manager, f.node
    if root < 2:
        return f
    info = analyze(manager.store, root, manager.num_vars)
    mark_nodes(manager, root, info, threshold, quality,
               replacements=replacements)
    return Function(manager, build_result(manager, root, info))


def remap_over_approx(f: Function, threshold: int = 0,
                      quality: float = 1.0) -> Function:
    """Safe over-approximation by duality: ``~RUA(~f)`` (Section 2)."""
    return ~remap_under_approx(~f, threshold=threshold, quality=quality)


# ----------------------------------------------------------------------
# Pass 2: markNodes (Figure 3)
# ----------------------------------------------------------------------

def mark_nodes(manager: Manager, root: int, info: ApproxInfo,
               threshold: int, quality: float,
               replacements: tuple = (REPLACE_REMAP,
                                      REPLACE_GRANDCHILD,
                                      REPLACE_ZERO)) -> None:
    """Decide a replacement status for every node, top-down by level."""
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    q = Fraction(quality)
    counter = itertools.count()
    queue: list[tuple[int, int, int]] = []
    entered: set[int] = set()

    def enqueue(node: int) -> None:
        if node < 2 or node in entered:
            return
        entered.add(node)
        heapq.heappush(queue, (level[node], next(counter), node))

    info.flow[root] = 1 << level[root]
    enqueue(root)
    done = False
    check = manager.governor.checkpoint
    ticks = 0
    while queue:
        ticks += 1
        if not ticks & _MASK:
            check("remap")
        _, _, node = heapq.heappop(queue)
        if node in info.dead:
            continue
        if not done and info.size <= threshold:
            done = True
        flow = info.flow.get(node, 0)
        replacement = None
        if not done:
            replacement = find_replacement(manager, node, flow, info,
                                           replacements)
            if replacement is not None and \
                    not _accept(replacement, info, q):
                replacement = None
        if replacement is None:
            # Keep the node: flow passes to both children.
            node_level, high, low = level[node], hi[node], lo[node]
            add_flow(info, high, child_flow(info, flow, node_level, high))
            add_flow(info, low, child_flow(info, flow, node_level, low))
            enqueue(high)
            enqueue(low)
            continue
        _commit(manager, node, flow, replacement, info)
        if replacement.kind == REPLACE_REMAP:
            enqueue(replacement.kept)
        elif replacement.kind == REPLACE_GRANDCHILD:
            enqueue(replacement.grandchild[2])


def _accept(rep: Replacement, info: ApproxInfo, q: Fraction) -> bool:
    """densityRatio(replacement) > quality, in exact arithmetic."""
    new_minterms = info.minterms - rep.lost
    new_size = info.size - rep.saved
    if new_size <= 0:
        # The estimate claims everything is saved; only sensible when no
        # minterms survive either, which can never improve density.
        return False
    return (new_minterms * info.size * q.denominator
            > info.minterms * new_size * q.numerator)


def _commit(manager: Manager, node: int, flow: int, rep: Replacement,
            info: ApproxInfo) -> None:
    """updateInfo: record the replacement and update all bookkeeping."""
    level = manager.store.level
    apply_death(info, rep.dead)
    info.size -= rep.saved
    info.minterms -= rep.lost
    if rep.kind == REPLACE_ZERO:
        info.status[node] = (REPLACE_ZERO,)
        return
    if rep.kind == REPLACE_REMAP:
        kept = rep.kept
        info.status[node] = (REPLACE_REMAP, kept)
        # Arcs into `node` now point at `kept`.
        if kept >= 2:
            info.refs[kept] = info.refs.get(kept, 0) + info.refs[node]
            add_flow(info, kept, flow << (level[kept] - level[node]))
        return
    child_level, use_then, shared = rep.grandchild
    info.status[node] = (REPLACE_GRANDCHILD, child_level, use_then, shared)
    if shared >= 2:
        # The new node at `child_level` references the shared
        # grandchild.
        info.refs[shared] = info.refs.get(shared, 0) + 1
        add_flow(info, shared,
                 flow << (level[shared] - level[node] - 1))


# ----------------------------------------------------------------------
# findReplacement (Section 2.1.1)
# ----------------------------------------------------------------------

def _count_from(info: ApproxInfo, node: int, level: int) -> int:
    """Minterm count of ``node`` over the variables at ``level`` down."""
    if node < 2:
        return node << (info.nvars - level)
    return info.counts[node] << (info.store.level[node] - level)


def find_replacement(manager: Manager, node: int, flow: int,
                     info: ApproxInfo,
                     replacements: tuple = (REPLACE_REMAP,
                                            REPLACE_GRANDCHILD,
                                            REPLACE_ZERO)
                     ) -> Replacement | None:
    """Try remap, then replace-by-grandchild, then replace-by-0.

    Returns the first enabled type that *applies* (the acceptance
    decision is the caller's); None when no enabled type applies.
    """
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    high, low = hi[node], lo[node]
    node_level = level[node]
    count_here = info.counts[node]

    # --- remap: requires one child's function contained in the other's.
    kept = None
    if REPLACE_REMAP in replacements:
        if leq_node(manager, low, high):
            kept = low
        elif leq_node(manager, high, low):
            kept = high
    if kept is not None:
        protected = frozenset() if kept < 2 else frozenset({kept})
        dead = nodes_saved(node, info, protected)
        lost = flow * (count_here
                       - _count_from(info, kept, node_level))
        return Replacement(kind=REPLACE_REMAP, lost=lost,
                           saved=len(dead), dead=dead, kept=kept)

    # --- replace-by-grandchild: children at the same level sharing a
    # grandchild on the same side.
    if REPLACE_GRANDCHILD in replacements and high >= 2 and low >= 2 \
            and level[high] == level[low]:
        shared = None
        if hi[high] == hi[low]:
            shared, use_then = hi[high], True
        elif lo[high] == lo[low]:
            shared, use_then = lo[high], False
        if shared is not None:
            protected = frozenset() if shared < 2 \
                else frozenset({shared})
            dead = nodes_saved(node, info, protected)
            # Replacement function y·shared (or y'·shared) over the
            # variables from node.level down: the node's own variable is
            # free, y is fixed, everything between is free.
            new_count = _count_from(info, shared, node_level) >> 1
            lost = flow * (count_here - new_count)
            return Replacement(
                kind=REPLACE_GRANDCHILD, lost=lost,
                saved=len(dead) - 1,  # the replacement node may be new
                dead=dead,
                grandchild=(level[high], use_then, shared))

    # --- replace-by-0: always applies (when enabled).
    if REPLACE_ZERO not in replacements:
        return None
    dead = nodes_saved(node, info, frozenset())
    return Replacement(kind=REPLACE_ZERO, lost=flow * count_here,
                       saved=len(dead), dead=dead)


# ----------------------------------------------------------------------
# Pass 3: buildResult
# ----------------------------------------------------------------------

def build_result(manager: Manager, root: int, info: ApproxInfo) -> int:
    """Rebuild the BDD bottom-up applying the recorded replacements.

    Explicit post-order walk (no recursion, so replacement chains of any
    depth work at the default recursion limit): expand frames (flag 0)
    resolve terminals/memo hits and queue the nodes a status depends on;
    rebuild frames (flag 1) pop the finished pieces off the value stack.
    """
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    mk = store.mk
    memo: dict[int, int] = {}
    status_of = info.status

    check = manager.governor.checkpoint
    ticks = 0
    stack: list[tuple[int, int]] = [(0, root)]
    values: list[int] = []
    while stack:
        ticks += 1
        if not ticks & _MASK:
            check("remap")
        flag, node = stack.pop()
        if flag == 0:
            if node < 2:
                values.append(node)
                continue
            if node in memo:
                values.append(memo[node])
                continue
            status = status_of.get(node)
            if status is not None and status[0] == REPLACE_ZERO:
                memo[node] = 0
                values.append(0)
                continue
            stack.append((1, node))
            if status is None:
                stack.append((0, lo[node]))
                stack.append((0, hi[node]))
            elif status[0] == REPLACE_REMAP:
                stack.append((0, status[1]))
            else:
                stack.append((0, status[3]))  # the shared grandchild
        else:
            status = status_of.get(node)
            if status is None:
                low = values.pop()
                high = values.pop()
                result = mk(level[node], high, low)
            elif status[0] == REPLACE_REMAP:
                result = values.pop()
            else:
                _, child_level, use_then, _ = status
                branch = values.pop()
                if use_then:
                    result = mk(child_level, branch, 0)
                else:
                    result = mk(child_level, 0, branch)
            memo[node] = result
            values.append(result)
    return values[0]
