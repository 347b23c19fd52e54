"""Value provenance for lint rules: which names hold a serve session.

RPR008 needs to know, inside one function, which local names
(probably) hold a serve ``Session`` — because a session carries
thread-affinity constraints the rule enforces.

:func:`session_names` is a deliberately simple, source-order-free
tripwire in the style of the RPR004 tracker: it scans a scope once and
keeps the *last* classification it can justify for each name.  Sources
of provenance:

* parameter / variable annotations (``s: Session``),
* constructor calls (``Session(...)``),
* the canonical parameter name ``session``,
* straight aliasing (``s2 = s``),
* iteration/pop over containers whose name mentions ``session`` —
  the serve daemon's ``self._sessions`` registry idiom.
"""

from __future__ import annotations

import ast

__all__ = ["session_names"]


def _is_session_annotation(annotation: ast.expr | None) -> bool:
    """Whether an annotation names ``Session``, Optional/unions too."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "Session":
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.strip("'\"") == "Session":
            return True
    return False


def _mentions_session(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "session" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) \
                and "session" in node.attr.lower():
            return True
    return False


def _is_session_value(value: ast.expr, sessions: set[str]) -> bool:
    if isinstance(value, ast.Name):
        return value.id in sessions
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            return func.id == "Session"
        if isinstance(func, ast.Attribute):
            return func.attr == "Session" or (
                func.attr == "pop" and _mentions_session(func.value))
    return False


def _bind(sessions: set[str], target: ast.expr, is_session: bool) -> None:
    if not isinstance(target, ast.Name):
        return
    if is_session:
        sessions.add(target.id)
    else:
        # A reassignment from an unclassified value clears any previous
        # provenance — last binding wins.
        sessions.discard(target.id)


def session_names(scope: ast.AST) -> set[str]:
    """Names that (probably) hold a serve session in one scope.

    ``scope`` is typically a function node.  Nested function bodies are
    included in the walk: closures share the enclosing names, and the
    tracker is a tripwire rather than a scoping-correct type system.
    """
    sessions: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            # Unannotated fallback: the repository's canonical parameter
            # name carries the kind.
            if _is_session_annotation(arg.annotation) \
                    or arg.arg == "session":
                sessions.add(arg.arg)
    # Two passes so a use-before-def ordering in ast.walk (which is
    # breadth-first, not source order) still converges on simple
    # chains like ``s = sessions.pop(key); t = s``.
    for _ in range(2):
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                is_session = _is_session_value(node.value, sessions)
                for target in node.targets:
                    _bind(sessions, target, is_session)
            elif isinstance(node, ast.AnnAssign):
                is_session = _is_session_annotation(node.annotation) or (
                    node.value is not None
                    and _is_session_value(node.value, sessions))
                _bind(sessions, node.target, is_session)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _mentions_session(node.iter):
                    _bind(sessions, node.target, True)
    return sessions
