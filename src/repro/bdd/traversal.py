"""Graph traversal helpers over raw BDD handles.

These are the building blocks of the paper's algorithms: collecting the
node set of a function, counting internal references (the paper's
*functionRef*), and iterating nodes in level order.

Every function takes the node store as its first argument and works on
int node ids, through the store's columns or accessors.  Result
containers are keyed by id.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .arraystore import ArrayStore


def collect_nodes(store: "ArrayStore", root: int) -> list[int]:
    """All internal nodes reachable from ``root`` (excludes terminals).

    Depth-first, lo child first, each node listed when it is first
    popped.  Callers rely on this order (the store encoding and the
    stable level sort of :func:`nodes_by_level` both follow it), so the
    walk indexes the ``hi``/``lo`` columns and skips terminals before
    pushing them without changing which node comes when.
    """
    if root < 2:
        return []
    hi, lo = store.hi, store.lo
    seen: set[int] = set()
    mark = seen.add
    out: list[int] = []
    emit = out.append
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if node in seen:
            continue
        mark(node)
        emit(node)
        child = hi[node]
        if child > 1:
            push(child)
        child = lo[node]
        if child > 1:
            push(child)
    return out


def collect_node_set(store: "ArrayStore", root: Any) -> set[Any]:
    """Set of internal nodes reachable from ``root``."""
    return set(collect_nodes(store, root))


def support_levels(store: "ArrayStore", root: Any) -> set[int]:
    """Levels of the variables the function depends on."""
    level_of = store.level_of
    return {level_of(node) for node in collect_nodes(store, root)}


def function_refs(store: "ArrayStore", root: Any) -> dict[Any, int]:
    """Number of arcs into each node from *within* the function.

    This is the paper's *functionRef*: for every node reachable from
    ``root`` (terminals included), the count of parent arcs among the
    reachable internal nodes.  The root itself gets 0 internal arcs.
    """
    hi_of, lo_of = store.hi_of, store.lo_of
    refs: dict[Any, int] = {root: 0}
    for node in collect_nodes(store, root):
        for child in (hi_of(node), lo_of(node)):
            refs[child] = refs.get(child, 0) + 1
    return refs


def nodes_by_level(store: "ArrayStore", root: Any) -> list[Any]:
    """Reachable internal nodes sorted by level (a topological order).

    Arcs always point from a smaller to a strictly larger level, so level
    order is topological for the rooted DAG.
    """
    return sorted(collect_nodes(store, root), key=store.level_of)


def iter_paths(store: "ArrayStore", root: Any
               ) -> Iterator[tuple[dict[int, bool], int]]:
    """Iterate (partial level assignment, terminal value) per BDD path.

    Exponential in general; used in tests and on small examples only.
    The walk keeps its own branch stack, so paths of any depth work at
    the default recursion limit.
    """
    is_term = store.is_terminal
    level_of = store.level_of
    hi_of, lo_of = store.hi_of, store.lo_of
    if is_term(root):
        yield {}, store.value_of(root)
        return
    path: dict[int, bool] = {}
    # One frame per internal node on the current path; each frame owns
    # the iterator over its (branch value, child) pairs and the path
    # entry at its level.
    stack = [(root, iter(((True, hi_of(root)), (False, lo_of(root)))))]
    while stack:
        node, branches = stack[-1]
        try:
            value, child = next(branches)
        except StopIteration:
            stack.pop()
            del path[level_of(node)]
            continue
        path[level_of(node)] = value
        if is_term(child):
            yield dict(path), store.value_of(child)
        else:
            stack.append((child, iter(((True, hi_of(child)),
                                       (False, lo_of(child))))))
