"""Shared analysis machinery for the approximation algorithms.

This module implements the *analyze* pass of Figure 2 and the
*nodesSaved* dominator sweep of Figure 4 of the paper, plus the
path-flow bookkeeping of Section 2.1.2 used to count minterms lost
exactly.

Everything here manipulates int node ids through the store's accessors
(see :mod:`repro.bdd.arraystore`); the store that owns them rides along
in :attr:`ApproxInfo.store`.

Quantities
----------
For a BDD ``f`` over ``n`` variables and a node ``v``:

``counts[v]``
    minterms of the function rooted at ``v`` over the variables at
    levels ``v.level .. n-1`` (from *analyze*).
``refs[v]``
    the paper's *functionRef*: arcs into ``v`` from nodes of ``f``
    (the root carries one extra external reference).
``flow[v]``
    the number of assignments to the variables *above* ``v.level`` whose
    evaluation path reaches ``v`` — an exact integer encoding of the
    paper's "fraction of paths from the root that go through the node".
    Minterms of ``f`` passing through ``v`` equal ``flow[v]*counts[v]``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ...bdd.counting import minterm_count_map
from ...bdd.traversal import collect_nodes, function_refs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...bdd.arraystore import ArrayStore


@dataclass
class ApproxInfo:
    """The paper's *info* record threaded through the three passes."""

    #: the node store owning every handle below
    store: "ArrayStore"
    nvars: int
    #: minterm counts per node (over the variables below the node level)
    counts: dict[Any, int]
    #: current functionRef per node, updated as replacements are accepted
    refs: dict[Any, int]
    #: current estimate of the result size (|f| minus accepted savings)
    size: int
    #: current exact minterm count of the (virtual) result
    minterms: int
    #: path flow into each node, updated as markNodes descends
    flow: dict[Any, int] = field(default_factory=dict)
    #: replacement per node: see REPLACE_* constants
    status: dict[Any, tuple] = field(default_factory=dict)
    #: nodes structurally removed by accepted replacements
    dead: set[Any] = field(default_factory=set)


#: Replacement markers stored in ``ApproxInfo.status``.
REPLACE_ZERO = "zero"
REPLACE_REMAP = "remap"
REPLACE_GRANDCHILD = "grandchild"


def analyze(store: "ArrayStore", root: Any, nvars: int) -> ApproxInfo:
    """First pass of Figure 2: minterm counts and reference counts."""
    counts = minterm_count_map(store, root, nvars)
    refs = function_refs(store, root)
    refs[root] = refs.get(root, 0) + 1  # external reference to the root
    size = len(collect_nodes(store, root))
    if store.is_terminal(root):
        minterms = store.value_of(root) << nvars
    else:
        minterms = counts[root] << store.level_of(root)
    return ApproxInfo(store=store, nvars=nvars, counts=counts,
                      refs=refs, size=size, minterms=minterms)


def full_count(info: ApproxInfo, node: Any) -> int:
    """Minterm count of ``node`` as a function of *all* variables."""
    store = info.store
    if store.is_terminal(node):
        return store.value_of(node) << info.nvars
    return info.counts[node] << store.level_of(node)


def nodes_saved(start: Any, info: ApproxInfo,
                protected: frozenset = frozenset()) -> set[Any]:
    """Figure 4: nodes dominated by ``start`` under the current refs.

    Returns the *set* of nodes that die when every arc into ``start`` is
    removed: ``start`` itself plus every descendant all of whose
    remaining references come from dying nodes.  ``protected`` nodes are
    kept alive regardless (they acquire a reference from the
    replacement) and block propagation through themselves.

    The caller turns the set into the paper's *savings* count and, on
    acceptance, into reference-count updates.
    """
    store = info.store
    is_term, level_of = store.is_terminal, store.level_of
    hi_of, lo_of = store.hi_of, store.lo_of
    # local_ref[v] counts arcs into v from nodes already known dead.
    local_ref: dict[Any, int] = {start: info.refs[start]}
    dead: set[Any] = set()
    counter = itertools.count()
    queue: list[tuple[int, int, Any]] = [(level_of(start),
                                          next(counter), start)]
    enqueued = {start}
    while queue:
        _, _, node = heapq.heappop(queue)
        if is_term(node) or node in protected:
            continue
        if local_ref[node] == info.refs[node]:
            dead.add(node)
            for child in (hi_of(node), lo_of(node)):
                local_ref[child] = local_ref.get(child, 0) + 1
                if child not in enqueued and not is_term(child):
                    enqueued.add(child)
                    heapq.heappush(queue, (level_of(child),
                                           next(counter), child))
    return dead


def apply_death(info: ApproxInfo, dead: set[Any]) -> None:
    """Update functionRef counts for the removal of ``dead`` nodes."""
    hi_of, lo_of = info.store.hi_of, info.store.lo_of
    for node in dead:
        hi, lo = hi_of(node), lo_of(node)
        info.refs[hi] = info.refs.get(hi, 0) - 1
        info.refs[lo] = info.refs.get(lo, 0) - 1
    info.dead.update(dead)


def add_flow(info: ApproxInfo, node: Any, amount: int) -> None:
    """Accumulate path flow into ``node``."""
    if amount and not info.store.is_terminal(node):
        info.flow[node] = info.flow.get(node, 0) + amount


def child_flow(info: ApproxInfo, parent_flow: int, parent_level: int,
               child: Any) -> int:
    """Flow contribution along one arc from a node to one child.

    Variables strictly between the two levels are unconstrained, hence
    the power-of-two factor; the parent's own variable is fixed by the
    branch taken.
    """
    store = info.store
    child_level = info.nvars if store.is_terminal(child) \
        else store.level_of(child)
    return parent_flow << (child_level - parent_level - 1)
