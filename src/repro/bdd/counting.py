"""Counting and profile analysis: minterms, density, path lengths.

Minterm counts are exact Python integers (the paper's experiments report
counts around 1e45, far beyond doubles).  ``density`` is the paper's
ranking measure  delta(g) = ||g|| / |g|  (Section 2).

Node-level functions take the node store first and manipulate int node
ids; the Function-level entry points (:func:`sat_count`,
:func:`density`) keep their original signatures.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from .traversal import collect_nodes, nodes_by_level

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .arraystore import ArrayStore
    from .function import Function

#: Distance value meaning "no path".
INFINITY = math.inf


def bdd_size(store: "ArrayStore", root: Any) -> int:
    """Number of internal nodes — the paper's ``|f|``."""
    return len(collect_nodes(store, root))


def shared_size(store: "ArrayStore", roots: list[Any]) -> int:
    """Number of distinct internal nodes among several functions."""
    seen: set[Any] = set()
    for root in roots:
        seen.update(collect_nodes(store, root))
    return len(seen)


def minterm_count_map(store: "ArrayStore", root: Any,
                      nvars: int) -> dict[Any, int]:
    """Exact minterm count of the function rooted at each node.

    The count at node ``v`` is over the variables at levels
    ``v.level .. nvars-1`` (i.e., ``v`` viewed as a function of the
    variables from its own level down), matching the quantity RUA's
    *analyze* pass records.  Terminals count over zero variables:
    ONE -> 1, ZERO -> 0.
    """
    return _minterm_counts(store, nodes_by_level(store, root), nvars)


def _minterm_counts(store: "ArrayStore", nodes: list[int],
                    nvars: int) -> dict[int, int]:
    """:func:`minterm_count_map` over ``nodes``, a function's nodes in
    level order."""
    level, hi, lo = store.level, store.hi, store.lo
    # The terminals sit at level ``nvars`` for the shifts; they leave
    # the map before it is returned.
    counts = {0: 0, 1: 1}
    for node in reversed(nodes):
        below = level[node] + 1
        child = hi[node]
        high = counts[child] << ((nvars if child < 2 else level[child])
                                 - below)
        child = lo[node]
        low = counts[child] << ((nvars if child < 2 else level[child])
                                - below)
        counts[node] = high + low
    del counts[0], counts[1]
    return counts


def sat_count(function: "Function", nvars: int | None = None) -> int:
    """Exact ``||f||`` over ``nvars`` variables (default: all declared).

    One level-ordered walk of the function's own nodes gives both the
    support bound (the last node's level) and the counts, so the cost
    follows ``|f|``, not the store's size.
    """
    manager = function.manager
    store = manager.store
    root = function.node
    if nvars is None:
        nvars = manager.num_vars
    if nvars < 0:
        raise ValueError(f"nvars={nvars} must be non-negative")
    if root < 2:
        return root << nvars
    nodes = nodes_by_level(store, root)
    support_max = store.level[nodes[-1]]
    if nvars <= support_max:
        raise ValueError(
            f"nvars={nvars} smaller than support (level {support_max})")
    return _minterm_counts(store, nodes, nvars)[root] << store.level[root]


def density(function: "Function", nvars: int | None = None) -> float:
    """The paper's delta(f) = ||f|| / |f| (0.0 for constant FALSE).

    Computed in log space so that astronomically large minterm counts do
    not overflow the float conversion; a density past the float range
    is ``math.inf``.
    """
    size = len(function)
    minterms = sat_count(function, nvars)
    if minterms == 0:
        return 0.0
    if size == 0:  # constant TRUE
        size = 1
    try:
        return math.exp(log2int(minterms) * math.log(2.0) - math.log(size))
    except OverflowError:
        return math.inf


def log2int(n: int) -> float:
    """Accurate ``log2`` of an arbitrarily large positive integer."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    bits = n.bit_length()
    if bits <= 53:
        return math.log2(n)
    shift = bits - 53
    return math.log2(n >> shift) + shift


def distance_from_root(store: "ArrayStore", root: Any) -> dict[Any, int]:
    """Shortest number of arcs from the root to each reachable node.

    Terminals included.  The root has distance 0.
    """
    hi_of, lo_of = store.hi_of, store.lo_of
    dist: dict[Any, int] = {root: 0}
    for node in nodes_by_level(store, root):
        if node not in dist:
            continue
        d = dist[node] + 1
        for child in (hi_of(node), lo_of(node)):
            if dist.get(child, INFINITY) > d:
                dist[child] = d
    # nodes_by_level excludes terminals but their distances were set by
    # their parents; the root might itself be terminal.
    return dist


def distance_to_one(store: "ArrayStore", root: Any) -> dict[Any, float]:
    """Shortest number of arcs from each node to the ONE terminal.

    Nodes with no path to ONE map to :data:`INFINITY`.
    """
    one = store.one
    is_term = store.is_terminal
    hi_of, lo_of = store.hi_of, store.lo_of
    dist: dict[Any, float] = {}

    def get(node: Any) -> float:
        if node == one:
            return 0
        if is_term(node):
            return INFINITY
        return dist[node]

    for node in reversed(nodes_by_level(store, root)):
        dist[node] = 1 + min(get(hi_of(node)), get(lo_of(node)))
    dist[root] = get(root)
    return dist


def height_map(store: "ArrayStore", root: Any) -> dict[Any, int]:
    """Longest number of arcs from each node down to a terminal.

    The paper's *Band* decomposition-point selector uses the distance of
    a node from the constants; we use the longest distance, which tracks
    how much function remains below the node.
    """
    is_term = store.is_terminal
    hi_of, lo_of = store.hi_of, store.lo_of
    heights: dict[Any, int] = {}

    def get(node: Any) -> int:
        return 0 if is_term(node) else heights[node]

    for node in reversed(nodes_by_level(store, root)):
        heights[node] = 1 + max(get(hi_of(node)), get(lo_of(node)))
    return heights


def path_count(store: "ArrayStore", root: Any) -> int:
    """Number of root-to-terminal paths (both terminals)."""
    is_term = store.is_terminal
    hi_of, lo_of = store.hi_of, store.lo_of
    if is_term(root):
        return 1
    counts: dict[Any, int] = {}

    def get(node: Any) -> int:
        return 1 if is_term(node) else counts[node]

    for node in reversed(nodes_by_level(store, root)):
        counts[node] = get(hi_of(node)) + get(lo_of(node))
    return counts[root]
