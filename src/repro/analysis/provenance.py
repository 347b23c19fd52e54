"""Value provenance for lint rules: which names hold BDD runtime objects.

The concurrency rules need to know, inside one function, which local
names (probably) hold a ``Manager``, a ``Function``, a node store or a
serve ``Session`` — because those objects carry thread-affinity and
picklability constraints the rules enforce.

:class:`ScopeProvenance` is a deliberately simple, source-order-free
tripwire in the style of the RPR004 tracker: it scans a scope once,
records the *last* classification it can justify for each name, and
answers ``kind(name)`` queries.  Sources of provenance:

* parameter / variable annotations (``m: Manager``, ``fn: Function``),
* constructor calls (``Manager(...)``, ``Session(...)``,
  ``ArrayStore(...)``),
* well-known derivations (``session.manager``, ``manager.store``,
  Function-returning ``Manager`` methods like ``apply``/``ite``),
* straight aliasing (``m2 = m``),
* iteration/pop over containers whose name mentions ``session`` —
  the serve daemon's ``self._sessions`` registry idiom.
"""

from __future__ import annotations

import ast

__all__ = [
    "MANAGER", "FUNCTION", "SESSION", "STORE",
    "ScopeProvenance",
]

#: Provenance kinds.
MANAGER = "manager"
FUNCTION = "function"
SESSION = "session"
STORE = "store"

#: Constructor name -> kind of the constructed value.
_CONSTRUCTORS = {
    "Manager": MANAGER,
    "Function": FUNCTION,
    "Session": SESSION,
    "ArrayStore": STORE,
}

#: Annotation name -> kind of the annotated value.
_ANNOTATIONS = {
    "Manager": MANAGER,
    "Function": FUNCTION,
    "Session": SESSION,
    "ArrayStore": STORE,
}

#: Manager methods whose result is a Function handle.
_FUNCTION_METHODS = frozenset({
    "var", "add_var", "true", "false", "apply", "ite", "mk_func",
})

#: Canonical parameter names -> kind, the unannotated fallback (the
#: repository consistently calls its managers ``manager``/``m`` is too
#: short to trust; only the unambiguous full words are classified).
_CANONICAL_PARAMS = {
    "manager": MANAGER,
    "session": SESSION,
    "store": STORE,
}


def _annotation_kind(annotation: ast.expr | None) -> str | None:
    """Classify an annotation expression, unwrapping Optional/unions."""
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        name: str | None = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            name = node.value.strip("'\"")
        if name is not None and name in _ANNOTATIONS:
            return _ANNOTATIONS[name]
    return None


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mentions_session(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "session" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) \
                and "session" in node.attr.lower():
            return True
    return False


class ScopeProvenance:
    """Name -> kind classification for one function (or module) scope."""

    def __init__(self) -> None:
        self.kinds: dict[str, str] = {}

    def kind(self, name: str) -> str | None:
        return self.kinds.get(name)

    def names(self, *kinds: str) -> set[str]:
        wanted = set(kinds)
        return {name for name, kind in self.kinds.items()
                if kind in wanted}

    def _classify_value(self, value: ast.expr) -> str | None:
        if isinstance(value, ast.Name):
            return self.kinds.get(value.id)
        if isinstance(value, ast.Attribute):
            if value.attr == "manager":
                return MANAGER
            if value.attr in ("store", "_store") \
                    and isinstance(value.value, ast.Name) \
                    and self.kinds.get(value.value.id) == MANAGER:
                return STORE
            return None
        if isinstance(value, ast.Call):
            name = _callee_name(value)
            if name in _CONSTRUCTORS:
                return _CONSTRUCTORS[name]
            func = value.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _FUNCTION_METHODS \
                    and isinstance(func.value, ast.Name) \
                    and self.kinds.get(func.value.id) == MANAGER:
                return FUNCTION
            if isinstance(func, ast.Attribute) and func.attr == "pop" \
                    and _mentions_session(func.value):
                return SESSION
        return None

    def _bind(self, target: ast.expr, kind: str | None) -> None:
        if not isinstance(target, ast.Name):
            return
        if kind is None:
            # A reassignment from an unclassified value clears any
            # previous provenance — last binding wins.
            self.kinds.pop(target.id, None)
        else:
            self.kinds[target.id] = kind

    @classmethod
    def scan(cls, scope: ast.AST) -> "ScopeProvenance":
        """Scan one scope (typically a function node) for provenance.

        Nested function bodies are included in the walk: closures share
        the enclosing names, and the tracker is a tripwire rather than
        a scoping-correct type system.
        """
        self = cls()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                kind = _annotation_kind(arg.annotation)
                if kind is None:
                    # Unannotated fallback: the repository's canonical
                    # parameter names carry their kind.
                    kind = _CANONICAL_PARAMS.get(arg.arg)
                if kind is not None:
                    self.kinds[arg.arg] = kind
        # Two passes so a use-before-def ordering in ast.walk (which is
        # breadth-first, not source order) still converges on simple
        # chains like ``m = Manager(); f = m.var("a")``.
        for _ in range(2):
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    kind = self._classify_value(node.value)
                    for target in node.targets:
                        self._bind(target, kind)
                elif isinstance(node, ast.AnnAssign):
                    kind = _annotation_kind(node.annotation) \
                        or (self._classify_value(node.value)
                            if node.value is not None else None)
                    self._bind(node.target, kind)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if _mentions_session(node.iter):
                        self._bind(node.target, SESSION)
        return self
