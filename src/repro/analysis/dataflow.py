"""A small forward-dataflow framework over :mod:`repro.analysis.cfg`.

Facts are ``frozenset[str]`` — a set-based gen/kill lattice.  A rule
supplies a *transfer* function mapping ``(leaf statement, fact before)``
to the fact after that statement; :class:`ForwardAnalysis` runs the
classic worklist algorithm to a fixpoint.

Two joins are supported:

``"union"`` (default)
    May-analysis: a fact holds after the merge if it held on *any*
    incoming path.  Used by the ref-pairing rule ("this handle may
    still be pending").
``"intersection"``
    Must-analysis: a fact survives the merge only if it held on *every*
    incoming path.  Unvisited predecessors contribute top (no
    constraint) rather than the empty set.

The framework is intraprocedural and flow-sensitive but path- and
context-insensitive — exactly enough structure for lint-grade proofs,
nothing more.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable

from .cfg import CFG

__all__ = ["Fact", "Transfer", "ForwardAnalysis", "gen_kill"]

#: A dataflow fact: an immutable set of atoms.
Fact = frozenset[str]

#: Transfer function: fact after = transfer(statement, fact before).
Transfer = Callable[[ast.AST, Fact], Fact]

EMPTY: Fact = frozenset()


def gen_kill(gen: frozenset[str], kill: frozenset[str]) -> Transfer:
    """A constant gen/kill transfer: ``(fact - kill) | gen``."""
    def transfer(_stmt: ast.AST, fact: Fact) -> Fact:
        return (fact - kill) | gen
    return transfer


class ForwardAnalysis:
    """Worklist fixpoint of a forward dataflow problem on one CFG."""

    def __init__(self, cfg: CFG, transfer: Transfer,
                 entry_fact: Fact = EMPTY,
                 join: str = "union") -> None:
        if join not in ("union", "intersection"):
            raise ValueError(f"unknown join {join!r}")
        self.cfg = cfg
        self.transfer = transfer
        self.entry_fact = entry_fact
        self.join = join
        #: ``None`` means "not yet computed" (top for intersection).
        self._in: dict[int, Fact | None] = {
            bid: None for bid in cfg.blocks}
        self._out: dict[int, Fact | None] = {
            bid: None for bid in cfg.blocks}

    def _merge(self, facts: list[Fact]) -> Fact:
        if not facts:
            return EMPTY
        merged = facts[0]
        for fact in facts[1:]:
            merged = merged | fact if self.join == "union" \
                else merged & fact
        return merged

    def _flow(self, block_id: int, fact: Fact) -> Fact:
        for stmt in self.cfg.blocks[block_id].statements:
            fact = self.transfer(stmt, fact)
        return fact

    def run(self) -> "ForwardAnalysis":
        """Iterate to fixpoint; returns self for chaining."""
        preds = self.cfg.predecessors()
        worklist: deque[int] = deque(self.cfg.blocks)
        queued = set(worklist)
        while worklist:
            block_id = worklist.popleft()
            queued.discard(block_id)
            if block_id == self.cfg.entry:
                in_fact: Fact = self.entry_fact
            else:
                incoming = [self._out[p] for p in preds[block_id]]
                known = [fact for fact in incoming if fact is not None]
                if not known and incoming:
                    continue  # all predecessors still uncomputed
                in_fact = self._merge(known)
            out_fact = self._flow(block_id, in_fact)
            if self._in[block_id] == in_fact \
                    and self._out[block_id] == out_fact:
                continue
            self._in[block_id] = in_fact
            self._out[block_id] = out_fact
            for succ in self.cfg.blocks[block_id].successors:
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
        return self

    def fact_in(self, block_id: int) -> Fact:
        """The fact at block entry (empty if the block is unreachable)."""
        fact = self._in[block_id]
        return fact if fact is not None else EMPTY

    def fact_out(self, block_id: int) -> Fact:
        """The fact at block exit (empty if the block is unreachable)."""
        fact = self._out[block_id]
        return fact if fact is not None else EMPTY

    def exit_fact(self) -> Fact:
        """The fact at the function's exit node."""
        return self.fact_in(self.cfg.exit)

