"""The BDD-specific syntactic lint rule RPR001.

It guards a structural convention the algorithms rely on, one that no
run of the code can show broken:

RPR001
    Kernel modules must not use Python recursion — direct or mutual —
    so every traversal works on 10k-level chain BDDs at CPython's
    default recursion limit (kernels use explicit stacks).  Detected
    by per-module call-graph cycle search.  Recursion elsewhere is
    reported as a warning: it does not gate CI but marks depth-unsafe
    helpers.

Properties that a run can see are checked where the code runs instead:
``ComputedTable.tally`` rejects unregistered op tags,
``register_approximator`` rejects a malformed signature, and
``Manager``/``Function`` operations refuse another manager's
``Function`` (``docs/analysis.md``).

The governed-kernel scope (:data:`GOVERNED_KERNEL_SUFFIXES`,
:func:`is_governed_module`) also lives here; the checkpoint rule that
uses it, RPR010, is in :mod:`repro.analysis.rules_flow`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from .lint import FileContext, Violation, register_rule

#: Modules under the no-recursion contract: the BDD kernels, the
#: approximation/decomposition rebuild passes, and the object format
#: that store loads and cross-manager copies rebuild through.
KERNEL_MODULE_SUFFIXES = (
    "repro/bdd/operations.py",
    "repro/bdd/quantify.py",
    "repro/bdd/restrict.py",
    "repro/bdd/traversal.py",
    "repro/core/approx/remap.py",
    "repro/core/approx/short_paths.py",
    "repro/core/approx/heavy_branch.py",
    "repro/core/approx/under_approx.py",
    "repro/core/approx/minimize.py",
    "repro/core/approx/compound.py",
    "repro/core/approx/info.py",
    "repro/core/decomp/general.py",
    "repro/core/decomp/cofactor.py",
    "repro/core/decomp/mcmillan.py",
    "repro/core/decomp/points.py",
    "repro/store/format.py",
)


def _path_matches(path: str, suffixes: tuple[str, ...]) -> bool:
    posix = PurePath(path).as_posix()
    return any(posix.endswith(suffix) for suffix in suffixes)


def is_kernel_module(ctx: FileContext) -> bool:
    """Kernel modules by path — or by an explicit ``kernel`` pragma.

    The pragma (``# repro-lint: kernel`` on any line) lets the rule test
    corpus exercise kernel-severity behaviour from fixture files that do
    not live under ``src/repro``.
    """
    if _path_matches(ctx.path, KERNEL_MODULE_SUFFIXES):
        return True
    return any("# repro-lint: kernel" in line
               for line in ctx.source.splitlines()[:10])


# ----------------------------------------------------------------------
# RPR001 — no recursion in kernel modules
# ----------------------------------------------------------------------

class _FunctionInfo:
    __slots__ = ("qualname", "node", "classname", "enclosing")

    def __init__(self, qualname: str, node: ast.AST,
                 classname: str | None, enclosing: str) -> None:
        self.qualname = qualname
        self.node = node
        self.classname = classname
        self.enclosing = enclosing  # qualname prefix ("" at module level)


def _collect_functions(tree: ast.Module) -> list[_FunctionInfo]:
    out: list[_FunctionInfo] = []
    stack: list[tuple[list[ast.stmt], str, str | None]] = \
        [(tree.body, "", None)]
    while stack:
        body, prefix, classname = stack.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(_FunctionInfo(prefix + node.name, node,
                                         classname, prefix))
                stack.append((node.body, prefix + node.name + ".",
                              classname))
            elif isinstance(node, ast.ClassDef):
                stack.append((node.body, prefix + node.name + ".",
                              prefix + node.name))
    return out


def _call_edges(functions: list[_FunctionInfo]
                ) -> dict[str, set[str]]:
    """Call graph over qualified names, resolved conservatively.

    A ``name(...)`` call matches module-level functions and functions
    nested inside the caller's own enclosing chain (closures); a
    ``self.name(...)`` call matches methods of the caller's class.
    Attribute calls on anything other than ``self`` are *not* matched —
    they overwhelmingly target other objects, and matching them drowns
    the signal in false positives.
    """
    by_name: dict[str, list[_FunctionInfo]] = {}
    for info in functions:
        by_name.setdefault(info.qualname.rsplit(".", 1)[-1],
                           []).append(info)
    edges: dict[str, set[str]] = {info.qualname: set()
                                  for info in functions}
    for info in functions:
        caller_scope = info.qualname + "."
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                for target in by_name.get(func.id, ()):
                    # A bare name can never denote a method (those are
                    # only reachable through an instance), so skip
                    # direct class members.
                    is_method = target.classname is not None \
                        and target.enclosing == target.classname + "."
                    visible = not is_method and (
                        (target.enclosing == ""
                         and target.classname is None)
                        or caller_scope.startswith(target.enclosing))
                    if visible:
                        edges[info.qualname].add(target.qualname)
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self" \
                    and info.classname is not None:
                for target in by_name.get(func.attr, ()):
                    if target.classname == info.classname \
                            and "." not in target.qualname[
                                len(target.enclosing):]:
                        edges[info.qualname].add(target.qualname)
    return edges


def _on_cycle(edges: dict[str, set[str]]) -> dict[str, set[str]]:
    """Map each function on a call cycle to its cycle members.

    A function is on a cycle iff it can reach itself through at least
    one call edge; its cycle members are the functions that both reach
    it and are reached by it (its strongly connected component).
    """
    reach: dict[str, set[str]] = {}
    for start in edges:
        seen: set[str] = set()
        stack = list(edges[start])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, ()))
        reach[start] = seen
    return {start: {other for other in reach[start]
                    if start in reach.get(other, ())}
            for start in edges if start in reach[start]}


@register_rule(
    "RPR001", "no-kernel-recursion", "error",
    "Python recursion (direct or mutual) in a BDD kernel module; "
    "kernels must use explicit stacks so deep chain BDDs work at the "
    "default recursion limit.")
def check_no_kernel_recursion(ctx: FileContext) -> Iterator[Violation]:
    functions = _collect_functions(ctx.tree)
    if not functions:
        return
    cycles = _on_cycle(_call_edges(functions))
    if not cycles:
        return
    kernel = is_kernel_module(ctx)
    severity = "error" if kernel else "warning"
    infos = {info.qualname: info for info in functions}
    for qualname in sorted(cycles):
        members = sorted(set(cycles[qualname]) | {qualname})
        where = "kernel module" if kernel else "module"
        yield ctx.violation(
            "RPR001", infos[qualname].node,
            f"recursive call cycle in {where}: "
            f"{' -> '.join(members)} (rewrite with an explicit stack)",
            severity=severity)


# ----------------------------------------------------------------------
# Governed kernels: the scope of RPR010's checkpoint proof
# ----------------------------------------------------------------------

#: Kernel modules under the abortability contract: every hot loop must
#: call the resource governor's strided checkpoint so budgets and
#: deadlines can stop it (the robustness-layer guarantee).  Narrower
#: than :data:`KERNEL_MODULE_SUFFIXES` — only the modules whose loops
#: can run unbounded work per call are governed.
GOVERNED_KERNEL_SUFFIXES = (
    "repro/bdd/operations.py",
    "repro/bdd/quantify.py",
    "repro/bdd/restrict.py",
    "repro/core/approx/remap.py",
)


def is_governed_module(ctx: FileContext) -> bool:
    """Governed kernels by path — or by a ``governed`` pragma.

    The pragma (``# repro-lint: governed`` in the first lines) lets the
    rule test corpus exercise the checkpoint requirement from fixture
    files outside ``src/repro``.
    """
    if _path_matches(ctx.path, GOVERNED_KERNEL_SUFFIXES):
        return True
    return any("# repro-lint: governed" in line
               for line in ctx.source.splitlines()[:10])


def _is_checkpoint_ref(node: ast.expr) -> bool:
    """True for ``<expr>.governor.checkpoint`` (and ``_governor``)."""
    return isinstance(node, ast.Attribute) \
        and node.attr == "checkpoint" \
        and isinstance(node.value, ast.Attribute) \
        and node.value.attr in ("governor", "_governor")

