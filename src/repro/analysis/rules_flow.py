"""The flow-aware lint rule RPR010.

It guards an invariant of the governed kernels that a purely
syntactic scan cannot see, by walking each loop's body:

RPR010
    In Python every cycle of a function body is a ``while`` or ``for``
    statement, so the rule checks loops.  Each loop in a governed
    kernel function whose body can get back to its head (by running
    off its end or through a ``continue``) needs a governor checkpoint
    call from which control can get back to that head.  A checkpoint
    followed, in its own block or in a block between it and the loop,
    by a ``return``, a ``raise`` or a ``break`` that leaves the loop
    does not count.  A checkpoint in a nested loop counts for the
    loops around it; an enclosing loop's checkpoint does not count for
    a nested loop.  A ``for`` loop whose only calls are cheap container
    operations is proven safe without a pragma; a ``while`` loop never
    is, because cheap iterations do not bound a worklist loop that
    runs as long as the graph is big.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .lint import FileContext, Violation, register_rule
from .rules import _collect_functions, _is_checkpoint_ref, is_governed_module


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own code, not the bodies of nested defs."""
    stack: list[ast.AST] = [func]
    while stack:
        node = stack.pop()
        if node is not func and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# RPR010 — every governed loop gets back to its head through a checkpoint
# ----------------------------------------------------------------------

#: Container/O(1) operations that cannot run unbounded kernel work; a
#: ``for`` loop whose calls are all of this shape is provably cheap and
#: needs no checkpoint.
_TRIVIAL_ATTR_CALLS = frozenset({
    "pop", "popleft", "append", "appendleft", "add", "discard",
    "remove", "extend", "update", "get", "items", "keys", "values",
    "setdefault", "clear",
})
_TRIVIAL_NAME_CALLS = frozenset({
    "len", "min", "max", "abs", "id", "isinstance", "iter", "next",
    "range", "zip", "enumerate", "reversed", "sorted", "tuple",
    "list", "set", "dict", "frozenset", "bool", "int",
})

_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _checkpoint_aliases(tree: ast.Module) -> set[str]:
    """``check = manager.governor.checkpoint`` hot-loop aliases."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_checkpoint_ref(node.value):
            aliases.add(node.targets[0].id)
    return aliases


def _has_checkpoint(stmt: ast.AST, aliases: set[str]) -> bool:
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _is_checkpoint_ref(func):
            return True
        if isinstance(func, ast.Name) and func.id in aliases:
            return True
    return False


def _nontrivial_calls(stmts: list[ast.AST]) -> list[ast.Call]:
    out: list[ast.Call] = []
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _TRIVIAL_ATTR_CALLS:
                continue
            if isinstance(func, ast.Name) \
                    and func.id in _TRIVIAL_NAME_CALLS:
                continue
            out.append(node)
    return out


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in a compound statement."""
    blocks: list[list[ast.stmt]] = [
        getattr(stmt, name) for name in ("body", "orelse", "finalbody")
        if hasattr(stmt, name)]
    blocks += [part.body for part in ast.iter_child_nodes(stmt)
               if isinstance(part, (ast.ExceptHandler, ast.match_case))]
    return blocks


def _own_parts(stmt: ast.stmt) -> list[ast.AST]:
    """What a statement evaluates itself, outside its nested blocks."""
    parts: list[ast.AST] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.ExceptHandler):
            parts += [child.type] if child.type else []
        elif isinstance(child, ast.match_case):
            parts += [child.guard] if child.guard else []
        elif not isinstance(child, ast.stmt):
            parts.append(child)
    return parts


def _loop_body(loop: ast.While | ast.For | ast.AsyncFor
               ) -> Iterator[tuple[ast.stmt, bool]]:
    """Each statement of a loop's body, nested ones included, paired
    with whether control can get from it back to the loop's head.

    A block is walked with three flags: whether running off its end, a
    ``break`` in it and a ``continue`` in it get back to the head.  A
    statement gets back as the first jump at or after it in its block
    does (a ``return`` or ``raise`` never does), or, with no jump
    there, as the block's end does.  A nested loop is left by its own
    ``break`` and by running out, so all three flags of its body are
    those of the statement after it.  Nested ``def`` and ``class``
    bodies do not run here and are skipped.
    """
    stack: list[tuple[list[ast.stmt], bool, bool, bool]] = \
        [(loop.body, True, False, True)]
    while stack:
        block, tail, brk, cont = stack.pop()
        back = [tail]
        for stmt in reversed(block):
            if isinstance(stmt, (ast.Return, ast.Raise)):
                back.append(False)
            elif isinstance(stmt, ast.Break):
                back.append(brk)
            elif isinstance(stmt, ast.Continue):
                back.append(cont)
            else:
                back.append(back[-1])
        back.reverse()
        for stmt, here, after in zip(block, back, back[1:]):
            if isinstance(stmt, _DEFS):
                continue
            yield stmt, here
            if isinstance(stmt, _LOOPS):
                stack.append((stmt.body, after, after, after))
                stack.append((stmt.orelse, after, brk, cont))
            else:
                stack.extend((sub, after, brk, cont)
                             for sub in _blocks(stmt))


@register_rule(
    "RPR010", "governed-cycle-checkpoint", "error",
    "A loop in a governed kernel function can get back to its head "
    "without a governor checkpoint: a while-loop, a for-loop doing "
    "kernel work, or a loop whose only checkpoint sits on a "
    "break/return path or in an enclosing loop can spin without "
    "budgets or deadlines being able to abort it.")
def check_governed_cycle_checkpoint(ctx: FileContext
                                    ) -> Iterator[Violation]:
    if not is_governed_module(ctx):
        return
    aliases = _checkpoint_aliases(ctx.tree)
    for info in _collect_functions(ctx.tree):
        for loop in _own_nodes(info.node):
            if not isinstance(loop, _LOOPS):
                continue
            looping = [stmt for stmt, back in _loop_body(loop) if back]
            if not looping:
                continue  # every path through the body leaves the loop
            parts = [part for stmt in looping
                     for part in _own_parts(stmt)]
            if isinstance(loop, ast.While):
                parts.append(loop.test)
            if any(_has_checkpoint(part, aliases) for part in parts):
                continue
            # A for loop over container work is bounded by what it
            # iterates; a while loop runs as long as its test holds,
            # and a worklist drains as slowly as the graph is big.
            if not isinstance(loop, ast.While) \
                    and not _nontrivial_calls(parts):
                continue
            head = loop.test if isinstance(loop, ast.While) \
                else loop.target
            yield ctx.violation(
                "RPR010", head,
                f"cycle in governed kernel {info.qualname!r} has no "
                f"governor checkpoint on its looping paths; tick "
                f"Governor.checkpoint(op) inside the cycle (a "
                f"checkpoint on a break/return path does not count)")
