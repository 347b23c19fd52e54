"""Intraprocedural control-flow graphs for the flow-aware lint rules.

:func:`build_cfg` lowers one ``def``/``async def`` body to a graph of
:class:`Block` records — straight-line runs of simple statements joined
by edges for ``if``/``while``/``for``/``try``/``match``/``break``/
``continue``/``return``/``raise``.  The graph is deliberately small and
conservative:

* Block *statements* are always leaf items: simple statements, branch
  conditions, loop iterables and loop targets.  Compound statements are
  never stored whole, so walking a block's statements never leaks into a
  nested body — a property the cycle rules (RPR010) depend on.
* Nested ``def``/``class`` statements become :class:`DefBinding`
  pseudo-statements: the binding executes here, the body does not.
* Exception edges are approximated: a ``try`` body may jump to each of
  its handlers from its entry and exit, and ``raise`` goes straight to
  the function exit.  This is sound for the may-analyses built on top
  (facts only ever *merge*), not a precise exception CFG.

Cycle detection (:meth:`CFG.cycles`) returns the non-trivial strongly
connected components, which is the granularity the governed-checkpoint
proof works at: a strided checkpoint under ``if not ticks & MASK:``
flows back into the loop and therefore *is* part of the component,
while a checkpoint on a ``break``/``return`` path leaves the component
and does not count.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "DefBinding", "build_cfg"]

#: Statement types handled by dedicated branches of the builder; every
#: other statement is appended to the current block verbatim.
_TRY_TYPES: tuple[type[ast.AST], ...] = (ast.Try,)
if hasattr(ast, "TryStar"):  # 3.11+
    _TRY_TYPES = (ast.Try, ast.TryStar)


class DefBinding(ast.AST):
    """Pseudo-statement: a nested ``def``/``class`` binding its name.

    Carries the bound ``name`` and the real ``node`` so rules can still
    reach the nested definition, without its body polluting walks over
    the enclosing block's statements.
    """

    _fields = ()

    def __init__(self, name: str, node: ast.stmt) -> None:
        super().__init__()
        self.name = name
        self.node = node
        self.lineno = node.lineno
        self.col_offset = node.col_offset


@dataclass
class Block:
    """One basic block: leaf statements plus successor edges."""

    id: int
    label: str = ""
    statements: list[ast.AST] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)


class CFG:
    """A function's control-flow graph (see :func:`build_cfg`)."""

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self.entry = self._new("entry").id
        self.exit = self._new("exit").id

    def _new(self, label: str = "") -> Block:
        block = Block(id=len(self.blocks), label=label)
        self.blocks[block.id] = block
        return block

    def _edge(self, src: int, dst: int) -> None:
        successors = self.blocks[src].successors
        if dst not in successors:
            successors.append(dst)

    def statements(self, block_ids: Iterable[int]) -> Iterator[ast.AST]:
        """All leaf statements of the given blocks, in block order."""
        for bid in sorted(block_ids):
            yield from self.blocks[bid].statements

    def sccs(self) -> list[frozenset[int]]:
        """All strongly connected components (iterative Tarjan)."""
        index: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        out: list[frozenset[int]] = []
        counter = 0
        for root in self.blocks:
            if root in index:
                continue
            # (block, iterator over successors) work stack
            work: list[tuple[int, Iterator[int]]] = []
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(self.blocks[root].successors)))
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[node])
                if lowlink[node] == index[node]:
                    component: set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    out.append(frozenset(component))
        return out

    def cycles(self) -> list[frozenset[int]]:
        """Non-trivial SCCs: every block that sits on some cycle."""
        out: list[frozenset[int]] = []
        for component in self.sccs():
            if len(component) > 1:
                out.append(component)
            else:
                (only,) = component
                if only in self.blocks[only].successors:
                    out.append(component)
        return out


class _Builder:
    """Recursive-descent statement lowering.

    The recursion over statement lists is bounded by the *syntactic
    nesting depth* of the source being analysed (a dozen levels in
    practice), never by data — which is why the RPR001 suppression
    below is sound.
    """

    def __init__(self) -> None:
        self.cfg = CFG()
        #: (loop head id, loop after id) stack for break/continue.
        self.loops: list[tuple[int, int]] = []

    def _append(self, block_id: int, item: ast.AST) -> None:
        self.cfg.blocks[block_id].statements.append(item)

    def _store_name(self, name: str, at: ast.AST) -> ast.Name:
        node = ast.Name(id=name, ctx=ast.Store())
        node.lineno = getattr(at, "lineno", 1)
        node.col_offset = getattr(at, "col_offset", 0)
        return node

    # Recursion bounded by source nesting depth, not data (see class
    # docstring) — an explicit stack would obscure the lowering.
    def _body(self, stmts: list[ast.stmt],  # repro-lint: disable=RPR001
              cur: int | None) -> int | None:
        for stmt in stmts:
            if cur is None:
                # Code after return/break/... — keep it in the graph as
                # an unreachable block so facts stay computable.
                cur = self.cfg._new("unreachable").id
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt,  # repro-lint: disable=RPR001
              cur: int) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            self._append(cur, stmt.test)
            then_start = cfg._new("then")
            cfg._edge(cur, then_start.id)
            then_end = self._body(stmt.body, then_start.id)
            if stmt.orelse:
                else_start = cfg._new("else")
                cfg._edge(cur, else_start.id)
                else_end = self._body(stmt.orelse, else_start.id)
            else:
                else_end = cur
            ends = [end for end in (then_end, else_end)
                    if end is not None]
            if not ends:
                return None
            join = cfg._new("join")
            for end in ends:
                cfg._edge(end, join.id)
            return join.id
        if isinstance(stmt, ast.While):
            head = cfg._new("loop-head")
            cfg._edge(cur, head.id)
            self._append(head.id, stmt.test)
            after = cfg._new("loop-after")
            always_true = isinstance(stmt.test, ast.Constant) \
                and bool(stmt.test.value)
            body_start = cfg._new("loop-body")
            cfg._edge(head.id, body_start.id)
            self.loops.append((head.id, after.id))
            body_end = self._body(stmt.body, body_start.id)
            self.loops.pop()
            if body_end is not None:
                cfg._edge(body_end, head.id)
            if stmt.orelse:
                else_start = cfg._new("loop-else")
                if not always_true:
                    cfg._edge(head.id, else_start.id)
                else_end = self._body(stmt.orelse, else_start.id)
                if else_end is not None:
                    cfg._edge(else_end, after.id)
            elif not always_true:
                cfg._edge(head.id, after.id)
            return after.id
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._append(cur, stmt.iter)
            head = cfg._new("loop-head")
            cfg._edge(cur, head.id)
            self._append(head.id, stmt.target)
            after = cfg._new("loop-after")
            body_start = cfg._new("loop-body")
            cfg._edge(head.id, body_start.id)
            self.loops.append((head.id, after.id))
            body_end = self._body(stmt.body, body_start.id)
            self.loops.pop()
            if body_end is not None:
                cfg._edge(body_end, head.id)
            if stmt.orelse:
                else_start = cfg._new("loop-else")
                cfg._edge(head.id, else_start.id)
                else_end = self._body(stmt.orelse, else_start.id)
                if else_end is not None:
                    cfg._edge(else_end, after.id)
            else:
                cfg._edge(head.id, after.id)
            return after.id
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, cur)  # type: ignore[arg-type]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._append(cur, item.context_expr)
                if item.optional_vars is not None:
                    self._append(cur, item.optional_vars)
            return self._body(stmt.body, cur)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, cur)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            self._append(cur, stmt)
            if self.loops:
                head, after = self.loops[-1]
                cfg._edge(cur,
                          after if isinstance(stmt, ast.Break) else head)
            return None
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._append(cur, stmt)
            cfg._edge(cur, cfg.exit)
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self._append(cur, DefBinding(stmt.name, stmt))
            return cur
        self._append(cur, stmt)
        return cur

    def _try(self, stmt: ast.Try,  # repro-lint: disable=RPR001
             cur: int) -> int | None:
        cfg = self.cfg
        body_start = cfg._new("try")
        cfg._edge(cur, body_start.id)
        handler_blocks: list[Block] = []
        for _handler in stmt.handlers:
            handler_blocks.append(cfg._new("except"))
        for handler_block in handler_blocks:
            cfg._edge(body_start.id, handler_block.id)
        body_end = self._body(stmt.body, body_start.id)
        if body_end is not None and body_end != body_start.id:
            for handler_block in handler_blocks:
                cfg._edge(body_end, handler_block.id)
        ends: list[int | None] = []
        if stmt.orelse:
            if body_end is not None:
                else_start = cfg._new("try-else")
                cfg._edge(body_end, else_start.id)
                ends.append(self._body(stmt.orelse, else_start.id))
        else:
            ends.append(body_end)
        for handler, handler_block in zip(stmt.handlers, handler_blocks):
            if handler.type is not None:
                self._append(handler_block.id, handler.type)
            if handler.name:
                self._append(handler_block.id,
                             self._store_name(handler.name, handler))
            ends.append(self._body(handler.body, handler_block.id))
        live = [end for end in ends if end is not None]
        if stmt.finalbody:
            final_start = cfg._new("finally")
            for end in live:
                cfg._edge(end, final_start.id)
            if not live or not handler_blocks:
                # The finally clause also runs on the exceptional exit.
                cfg._edge(body_start.id, final_start.id)
            return self._body(stmt.finalbody, final_start.id)
        if not live:
            return None
        join = cfg._new("join")
        for end in live:
            cfg._edge(end, join.id)
        return join.id

    def _match(self, stmt: ast.Match,  # repro-lint: disable=RPR001
               cur: int) -> int | None:
        cfg = self.cfg
        self._append(cur, stmt.subject)
        join = cfg._new("join")
        for case in stmt.cases:
            case_block = cfg._new("case")
            cfg._edge(cur, case_block.id)
            self._append(case_block.id, case.pattern)
            if case.guard is not None:
                self._append(case_block.id, case.guard)
            case_end = self._body(case.body, case_block.id)
            if case_end is not None:
                cfg._edge(case_end, join.id)
        # Over-approximate: no case may match.
        cfg._edge(cur, join.id)
        return join.id


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function body.

    Nested function/class bodies are *not* lowered — they appear as
    :class:`DefBinding` pseudo-statements; build their CFGs separately.
    """
    builder = _Builder()
    end = builder._body(func.body, builder.cfg.entry)
    if end is not None:
        builder.cfg._edge(end, builder.cfg.exit)
    return builder.cfg
