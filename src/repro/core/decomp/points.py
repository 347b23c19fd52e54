"""Decomposition-point selectors: *Band* and *Disjoint* (Section 3).

*Band* picks nodes whose distance from the constants falls in a middle
band — low enough to shrink the factors substantially, but not so low
that rebuilding the factors destroys all recombination.  One pass.

*Disjoint* looks for nodes whose children share few nodes and are
balanced — splitting there maximizes the individual size reduction while
keeping the shared size small.  Exact per-node measurement is one pass
per node (quadratic overall), so, as the paper notes, "only a fraction
of the nodes are sampled": candidates are drawn from a height band and
capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ...bdd.counting import height_map
from ...bdd.function import Function
from ...bdd.traversal import collect_node_set, collect_nodes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...bdd.arraystore import ArrayStore


def band_points(f: Function, low: float = 0.35,
                high: float = 0.65) -> set:
    """Nodes whose height lies within ``[low, high]`` of the root's.

    Height is the longest distance to a constant (DESIGN.md).  The
    returned set may contain nodes above other returned nodes; the
    decomposition stops at the first point met on each path, so
    effectively the topmost members act.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    store = f.manager.store
    root = f.node
    if store.is_terminal(root):
        return set()
    heights = height_map(store, root)
    total = heights[root]
    lo_bound = low * total
    hi_bound = high * total
    return {node for node, height in heights.items()
            if lo_bound <= height <= hi_bound}


@dataclass
class DisjointScore:
    """Sharing/balance measurement of one candidate node."""

    node: Any
    #: fraction of the children's nodes that are shared (Jaccard)
    sharing: float
    #: larger child size over smaller child size
    balance: float


def score_disjointness(store: "ArrayStore", node: Any) -> DisjointScore:
    """Measure child sharing and balance of one node (one BDD pass)."""
    hi_nodes = collect_node_set(store, store.hi_of(node))
    lo_nodes = collect_node_set(store, store.lo_of(node))
    union = len(hi_nodes | lo_nodes)
    shared = len(hi_nodes & lo_nodes)
    sharing = shared / union if union else 1.0
    small = max(1, min(len(hi_nodes), len(lo_nodes)))
    large = max(1, max(len(hi_nodes), len(lo_nodes)))
    return DisjointScore(node=node, sharing=sharing,
                         balance=large / small)


def disjoint_points(f: Function, max_candidates: int = 64,
                    sharing_limit: float = 0.25,
                    balance_limit: float = 4.0,
                    band: tuple[float, float] = (0.2, 0.8)) -> set:
    """Nodes with sufficiently disjoint, balanced children.

    Samples at most ``max_candidates`` nodes from a height band
    (highest first) and keeps those within the sharing and balance
    limits; if none qualify, the single best-scoring candidate is
    returned so the decomposition always has a point to split at.
    """
    store = f.manager.store
    is_term = store.is_terminal
    hi_of, lo_of = store.hi_of, store.lo_of
    root = f.node
    if is_term(root):
        return set()
    heights = height_map(store, root)
    total = heights[root]
    candidates = [node for node in collect_nodes(store, root)
                  if band[0] * total <= heights[node] <= band[1] * total
                  and not is_term(hi_of(node))
                  and not is_term(lo_of(node))]
    candidates.sort(key=lambda n: -heights[n])
    candidates = candidates[:max_candidates]
    if not candidates:
        return set()
    scores = [score_disjointness(store, node) for node in candidates]
    chosen = {s.node for s in scores
              if s.sharing <= sharing_limit and s.balance <= balance_limit}
    if not chosen:
        best = min(scores, key=lambda s: (s.sharing, s.balance))
        chosen = {best.node}
    return chosen
