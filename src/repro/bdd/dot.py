"""DOT (Graphviz) export for debugging and documentation figures."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .traversal import nodes_by_level

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .function import Function


def to_dot(function: "Function", name: str = "f") -> str:
    """Render a Function as a Graphviz digraph string.

    Solid arcs are *then* arcs and dashed arcs are *else* arcs, matching
    the conventions of Figure 1 of the paper.
    """
    manager = function.manager
    store = manager.store
    level_of, hi_of, lo_of = store.level_of, store.hi_of, store.lo_of
    is_term, value_of = store.is_terminal, store.value_of
    root = function.node
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    ids: dict[int, str] = {}

    def node_id(node: int) -> str:
        if node not in ids:
            if is_term(node):
                ids[node] = f"t{value_of(node)}"
            else:
                ids[node] = f"n{len(ids)}"
        return ids[node]

    internal = nodes_by_level(store, root)
    by_level: dict[int, list] = {}
    for node in internal:
        by_level.setdefault(level_of(node), []).append(node)
    for level in sorted(by_level):
        var = manager.var_at_level(level)
        members = " ".join(f'"{node_id(n)}"' for n in by_level[level])
        lines.append(f"  {{ rank=same; {members} }}")
        for node in by_level[level]:
            lines.append(f'  "{node_id(node)}" [label="{var}"];')
    for value in (0, 1):
        terminal = store.one if value else store.zero
        if terminal in ids or root == terminal:
            lines.append(f'  "t{value}" [shape=box,label="{value}"];')
    for node in internal:
        lines.append(f'  "{node_id(node)}" -> "{node_id(hi_of(node))}";')
        lines.append(
            f'  "{node_id(node)}" -> "{node_id(lo_of(node))}" [style=dashed];')
    if is_term(root):
        lines.append(
            f'  "t{value_of(root)}" [shape=box,label="{value_of(root)}"];')
    lines.append("}")
    return "\n".join(lines)
