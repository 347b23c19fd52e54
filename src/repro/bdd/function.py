"""Function handles: the user-facing face of a BDD.

A :class:`Function` pairs a manager with a root *handle* in the
manager's node store and registers itself as a garbage-collection root.
It overloads the Python boolean operators, so formulas read naturally::

    f = (a & b) | ~c
    g = f ^ a

Handles referring to the same manager compare equal iff their root
handles are equal — which, by canonicity, means the functions are
equal.  The root handle is an ``int`` node id; code below reads node
fields only through the store's accessors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from .manager import Manager


class Function:
    """A boolean function represented by a BDD root in a manager."""

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: Manager, node: Any) -> None:
        self.manager = manager
        self.node = node
        manager.register(self)

    # ------------------------------------------------------------------
    # Identity and predicates
    # ------------------------------------------------------------------

    @property
    def handle(self) -> Any:
        """The root handle in the manager's node store (internal API).

        Preferred spelling of :attr:`node`; inspect it through
        ``function.manager.store``'s columns and accessors.
        """
        return self.node

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    @property
    def is_true(self) -> bool:
        """True iff this is the constant TRUE."""
        return self.node == self.manager.store.one

    @property
    def is_false(self) -> bool:
        """True iff this is the constant FALSE."""
        return self.node == self.manager.store.zero

    @property
    def is_constant(self) -> bool:
        """True iff this is TRUE or FALSE."""
        return self.manager.store.is_terminal(self.node)

    @property
    def var(self) -> str:
        """Name of the top variable (raises on constants)."""
        if self.is_constant:
            raise ValueError("constant function has no top variable")
        return self.manager.var_at_level(
            self.manager.store.level_of(self.node))

    @property
    def level(self) -> int:
        """Level of the top variable (terminal level for constants)."""
        return self.manager.store.level_of(self.node)

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    def _wrap(self, node: Any) -> "Function":
        return Function(self.manager, node)

    def _coerce(self, other: "Function | bool") -> "Function":
        if isinstance(other, bool):
            return self.manager.true if other else self.manager.false
        if not isinstance(other, Function):
            raise TypeError(f"cannot combine BDD with {type(other)!r}")
        self.manager._own(other)
        return other

    def __invert__(self) -> "Function":
        from .operations import not_node

        self.manager.safe_point()
        return self._wrap(not_node(self.manager, self.node))

    def __and__(self, other: "Function | bool") -> "Function":
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "and",
                                     self.node, other.node))

    __rand__ = __and__

    def __or__(self, other: "Function | bool") -> "Function":
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "or",
                                     self.node, other.node))

    __ror__ = __or__

    def __xor__(self, other: "Function | bool") -> "Function":
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "xor",
                                     self.node, other.node))

    __rxor__ = __xor__

    def __sub__(self, other: "Function | bool") -> "Function":
        """Set difference: ``self & ~other``."""
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "diff",
                                     self.node, other.node))

    def implies(self, other: "Function | bool") -> "Function":
        """Logical implication ``self -> other``."""
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "imp",
                                     self.node, other.node))

    def equiv(self, other: "Function | bool") -> "Function":
        """Logical equivalence ``self <-> other``."""
        from .operations import apply_node

        other = self._coerce(other)
        self.manager.safe_point()
        return self._wrap(apply_node(self.manager, "xnor",
                                     self.node, other.node))

    def ite(self, g: "Function", h: "Function") -> "Function":
        """``self·g + self'·h``."""
        from .operations import ite_node

        g = self._coerce(g)
        h = self._coerce(h)
        self.manager.safe_point()
        return self._wrap(ite_node(self.manager, self.node, g.node, h.node))

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def __le__(self, other: "Function | bool") -> bool:
        """Implication test: every minterm of self is in other."""
        from .operations import leq_node

        other = self._coerce(other)
        self.manager.safe_point()
        return leq_node(self.manager, self.node, other.node)

    def __ge__(self, other: "Function | bool") -> bool:
        other = self._coerce(other)
        return other.__le__(self)

    def __lt__(self, other: "Function | bool") -> bool:
        other = self._coerce(other)
        return self != other and self.__le__(other)

    def __gt__(self, other: "Function | bool") -> bool:
        other = self._coerce(other)
        return other.__lt__(self)

    # ------------------------------------------------------------------
    # Structure and evaluation
    # ------------------------------------------------------------------

    @property
    def hi(self) -> "Function":
        """Positive cofactor with respect to the top variable."""
        if self.is_constant:
            return self
        return self._wrap(self.manager.store.hi_of(self.node))

    @property
    def lo(self) -> "Function":
        """Negative cofactor with respect to the top variable."""
        if self.is_constant:
            return self
        return self._wrap(self.manager.store.lo_of(self.node))

    def cofactor(self, assignment: dict[str, bool]) -> "Function":
        """Restrict variables to constants."""
        from .operations import cofactor_node

        self.manager.safe_point()
        levels = {self.manager.level_of_var(n): v
                  for n, v in assignment.items()}
        return self._wrap(cofactor_node(self.manager, self.node, levels))

    def compose(self, substitution: "dict[str, Function]") -> "Function":
        """Simultaneously substitute functions for variables."""
        from .operations import vector_compose_node

        self.manager.safe_point()
        levels = {self.manager.level_of_var(n): self._coerce(g).node
                  for n, g in substitution.items()}
        return self._wrap(vector_compose_node(self.manager, self.node,
                                              levels))

    def rename(self, mapping: dict[str, str]) -> "Function":
        """Substitute variables for variables (must not collide)."""
        substitution = {old: self.manager.var(new)
                        for old, new in mapping.items()}
        return self.compose(substitution)

    def swap_variables(self, pairs: dict[str, str]) -> "Function":
        """Exchange variable pairs simultaneously (x<->y renaming).

        Unlike :meth:`rename`, which maps old names to new ones one-way
        (and rejects collisions implicitly), this swaps both directions
        — the operation used to move a set between present- and
        next-state variables.
        """
        substitution: dict[str, Function] = {}
        for a, b in pairs.items():
            substitution[a] = self.manager.var(b)
            substitution[b] = self.manager.var(a)
        return self.compose(substitution)

    def essential_variables(self) -> dict[str, bool]:
        """Variables with a forced polarity: x is essential-positive
        when f implies x (and dually).  Useful for preprocessing care
        sets."""
        out: dict[str, bool] = {}
        if self.is_false:
            return out
        for name in self.support():
            x = self.manager.var(name)
            if self <= x:
                out[name] = True
            elif self <= ~x:
                out[name] = False
        return out

    def __call__(self, **assignment: bool) -> bool:
        """Evaluate under a (complete-on-support) assignment."""
        store = self.manager.store
        is_term = store.is_terminal
        level_of = store.level_of
        hi_of, lo_of = store.hi_of, store.lo_of
        node = self.node
        levels = {self.manager.level_of_var(n): v
                  for n, v in assignment.items()}
        while not is_term(node):
            try:
                value = levels[level_of(node)]
            except KeyError:
                name = self.manager.var_at_level(level_of(node))
                raise ValueError(f"assignment misses variable {name!r}")
            node = hi_of(node) if value else lo_of(node)
        return bool(store.value_of(node))

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def exists(self, names: Iterable[str]) -> "Function":
        """Existential quantification over the named variables."""
        from .quantify import exists_node

        self.manager.safe_point()
        levels = frozenset(self.manager.level_of_var(n) for n in names)
        return self._wrap(exists_node(self.manager, self.node, levels))

    def forall(self, names: Iterable[str]) -> "Function":
        """Universal quantification over the named variables."""
        from .quantify import forall_node

        self.manager.safe_point()
        levels = frozenset(self.manager.level_of_var(n) for n in names)
        return self._wrap(forall_node(self.manager, self.node, levels))

    def and_exists(self, other: "Function",
                   names: Iterable[str]) -> "Function":
        """Relational product: ``exists names . self & other``."""
        from .quantify import and_exists_node

        other = self._coerce(other)
        self.manager.safe_point()
        levels = frozenset(self.manager.level_of_var(n) for n in names)
        return self._wrap(and_exists_node(self.manager, self.node,
                                          other.node, levels))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of internal nodes in this BDD (``|f|`` in the paper).

        Memoized per root by the manager (see
        :meth:`~repro.bdd.manager.Manager.node_size`).
        """
        return self.manager.node_size(self.node)

    def support(self) -> set[str]:
        """Set of variables the function depends on (memoized per root)."""
        return {self.manager.var_at_level(l)
                for l in self.manager.node_support_levels(self.node)}

    def sat_count(self, nvars: int | None = None) -> int:
        """Number of minterms (``||f||``) over ``nvars`` variables."""
        from .counting import sat_count

        return sat_count(self, nvars)

    def density(self, nvars: int | None = None) -> float:
        """Minterms per node — the paper's delta(f)."""
        from .counting import density

        return density(self, nvars)

    def pick_one(self) -> dict[str, bool] | None:
        """Some satisfying assignment over the support, or None."""
        store = self.manager.store
        zero = store.zero
        is_term = store.is_terminal
        level_of = store.level_of
        hi_of, lo_of = store.hi_of, store.lo_of
        node = self.node
        if node == zero:
            return None
        out: dict[str, bool] = {}
        while not is_term(node):
            name = self.manager.var_at_level(level_of(node))
            hi = hi_of(node)
            if hi != zero:
                out[name] = True
                node = hi
            else:
                out[name] = False
                node = lo_of(node)
        return out

    def iter_minterms(self, names: Iterable[str] | None = None
                      ) -> Iterator[dict[str, bool]]:
        """Iterate all satisfying assignments over ``names``.

        Defaults to the support of the function.  Exponential: use only
        on small functions (tests, examples).
        """
        manager = self.manager
        store = manager.store
        zero, one = store.zero, store.one
        level_of = store.level_of
        hi_of, lo_of = store.hi_of, store.lo_of
        if names is None:
            names = sorted(self.support(), key=manager.level_of_var)
        else:
            names = list(names)
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"variable {name!r} named twice")
                seen.add(name)
        levels = [manager.level_of_var(n) for n in names]
        order = sorted(range(len(names)), key=lambda i: levels[i])
        total = len(order)

        root = self.node
        if root == zero:
            return
        if total == 0:
            if root != one:
                raise ValueError(
                    "function depends on variables outside names")
            yield {}
            return
        partial: dict[str, bool] = {}
        # One frame per assigned variable on the current path; each
        # frame owns the iterator over its variable's polarities and
        # the corresponding ``partial`` entry.
        stack = [(root, 0, iter((False, True)))]
        while stack:
            node, idx, polarities = stack[-1]
            pos = order[idx]
            name, level = names[pos], levels[pos]
            try:
                value = next(polarities)
            except StopIteration:
                stack.pop()
                partial.pop(name, None)
                continue
            if not store.is_terminal(node) and level_of(node) == level:
                child = hi_of(node) if value else lo_of(node)
            else:
                child = node
            partial[name] = value
            if child == zero:
                continue
            if idx + 1 == total:
                if child != one:
                    raise ValueError(
                        "function depends on variables outside names")
                yield dict(partial)
                continue
            stack.append((child, idx + 1, iter((False, True))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_true:
            return "<Function TRUE>"
        if self.is_false:
            return "<Function FALSE>"
        return f"<Function top={self.var!r} nodes={len(self)}>"
