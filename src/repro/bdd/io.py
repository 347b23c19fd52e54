"""BDD serialization and cross-manager transfer.

``dump``/``load`` use a compact, order-independent textual format: one
line per node in a bottom-up order, ``index variable hi lo`` with
``hi``/``lo`` referring to earlier indices (0 and 1 are the constants).
Variables are stored by *name*, so a dump can be loaded into a manager
with a different variable order (the BDD is rebuilt with ITE).

``transfer`` copies a function into another manager directly.
"""

from __future__ import annotations

from typing import Any

from .function import Function
from .manager import Manager
from .operations import ite_node
from .traversal import nodes_by_level

FORMAT_HEADER = "repro-bdd 1"


class LoadError(ValueError):
    """A malformed dump, rejected with context instead of blowing up.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old ad-hoc errors keep working.  Raised for any structural
    violation — wrong field count, non-integer references, duplicate
    or constant-colliding indices, references to undefined nodes,
    redundant ``hi == lo`` nodes, a missing root — on *both* load
    paths, so the direct-insert fast path can never install a bad node
    or die on a raw ``KeyError``.
    """


def dump(function: Function) -> str:
    """Serialize one function to the textual node-list format."""
    manager = function.manager
    store = manager.store
    level_of, hi_of, lo_of = store.level_of, store.hi_of, store.lo_of
    lines = [FORMAT_HEADER]
    index: dict[int, int] = {store.zero: 0, store.one: 1}
    ordered = list(reversed(nodes_by_level(store, function.node)))
    for position, node in enumerate(ordered, start=2):
        index[node] = position
        name = manager.var_at_level(level_of(node))
        lines.append(f"{position} {name} {index[hi_of(node)]} "
                     f"{index[lo_of(node)]}")
    lines.append(f"root {index[function.node]}")
    return "\n".join(lines) + "\n"


def load(manager: Manager, text: str,
         declare: bool = True) -> Function:
    """Rebuild a dumped function inside ``manager``.

    Unknown variables are declared (bottom of the order) unless
    ``declare`` is False.  When the dump's variable order is compatible
    with the target manager — along every edge the child's level stays
    strictly below its parent's — the nodes are inserted straight into
    the unique table (the dump is already a canonical ROBDD in that
    order).  Otherwise the BDD is rebuilt with ITE, which is correct
    for any variable order.

    The direct path makes reloading a dump into a manager that encoded
    the same circuit (the common round-trip) linear in the dump size.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise LoadError("not a repro-bdd dump")
    root = _load_nodes(manager, lines, declare, direct=True)
    if root is None:
        root = _load_nodes(manager, lines, declare, direct=False)
    return Function(manager, root)


def _load_nodes(manager: Manager, lines: list[str], declare: bool,
                direct: bool) -> Any | None:
    """One pass over a dump's node lines; returns the root handle.

    With ``direct`` True, nodes go through ``store.mk`` and the pass
    gives up (returns None) on the first order-incompatible edge; any
    nodes already inserted are canonical and unreferenced, so the next
    safe-point GC reclaims the unused ones.

    Both passes validate the dump's structure up front — every
    reference must name an already-defined index and ``hi``/``lo``
    must differ — so malformed input raises a structured
    :class:`LoadError` instead of a raw index blowup, and the direct
    path never hands ``store.mk`` a non-canonical node.
    """
    store = manager.store
    level_of = store.level_of
    is_terminal = store.is_terminal
    nodes: dict[int, Any] = {0: store.zero, 1: store.one}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise LoadError(f"line {number}: malformed root line "
                                f"{line!r}")
            root = nodes.get(_int_field(parts[1], number, "root"))
            if root is None:
                raise LoadError(f"line {number}: root references an "
                                f"undefined node {parts[1]}")
            return root
        if len(parts) != 4:
            raise LoadError(f"line {number}: expected 'index variable "
                            f"hi lo', got {line!r}")
        raw_position, name, hi_index, lo_index = parts
        position = _int_field(raw_position, number, "index")
        if position < 2 or position in nodes:
            raise LoadError(f"line {number}: duplicate or reserved "
                            f"node index {position}")
        hi = nodes.get(_int_field(hi_index, number, "hi"))
        lo = nodes.get(_int_field(lo_index, number, "lo"))
        if hi is None or lo is None:
            raise LoadError(f"line {number}: reference to an "
                            f"undefined node in {line!r}")
        if hi is lo or hi == lo:
            raise LoadError(f"line {number}: redundant node "
                            f"(hi == lo == {hi_index})")
        if name not in manager._var_to_level:
            if not declare:
                raise LoadError(f"unknown variable {name!r}")
            manager.add_var(name)
        if direct:
            level = manager.level_of_var(name)
            if (not is_terminal(hi) and level_of(hi) <= level) or \
                    (not is_terminal(lo) and level_of(lo) <= level):
                return None
            nodes[position] = store.mk(level, hi, lo)
        else:
            nodes[position] = ite_node(
                manager, manager.var_handle(name), hi, lo)
    raise LoadError("dump has no root line")


def _int_field(raw: str, number: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise LoadError(f"line {number}: {what} field {raw!r} is not "
                        f"an integer") from None


def transfer(function: Function, target: Manager,
             declare: bool = True) -> Function:
    """Copy a function into another manager (orders may differ)."""
    source = function.manager
    if source is target:
        return function
    src = source.store
    level_of, hi_of, lo_of = src.level_of, src.hi_of, src.lo_of
    cache: dict[int, int] = {}

    # Explicit post-order walk (no recursion): expand frames (flag 0)
    # copy leaves or queue the children; rebuild frames (flag 1) pop the
    # two copied children off the value stack and re-canonicalize via
    # ITE in the target order.
    stack: list[tuple[int, Any]] = [(0, function.node)]
    values: list[Any] = []
    while stack:
        flag, node = stack.pop()
        if flag == 0:
            if node == src.zero:
                values.append(target.zero_node)
                continue
            if node == src.one:
                values.append(target.one_node)
                continue
            if node in cache:
                values.append(cache[node])
                continue
            name = source.var_at_level(level_of(node))
            if name not in target._var_to_level:
                if not declare:
                    raise ValueError(f"unknown variable {name!r}")
                target.add_var(name)
            stack.append((1, node))
            stack.append((0, lo_of(node)))
            stack.append((0, hi_of(node)))
        else:
            lo = values.pop()
            hi = values.pop()
            var = target.var_handle(source.var_at_level(level_of(node)))
            result = ite_node(target, var, hi, lo)
            cache[node] = result
            values.append(result)
    return Function(target, values[0])
