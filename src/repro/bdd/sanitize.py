"""The runtime graph sanitizer — a ``Cudd_DebugCheck`` equivalent.

:func:`check_manager` sweeps a manager and verifies every structural
invariant the algorithms assume:

* **ordering** — levels strictly increase along every arc toward the
  terminals;
* **reduction** — no redundant nodes (``lo == hi``);
* **unique-table consistency** — each node sits in the subtable of its
  own level under the key matching its child fields, and no two nodes
  share a ``(level, hi, lo)`` triple (hash-consing canonicity);
* **dangling arcs** — every child of a table node is a terminal of this
  manager or itself present in its unique table;
* **computed-table hygiene** — every cached entry references only live
  nodes and current interned ids (its packed key is decoded by the
  layout its op tag registered, :func:`~repro.bdd.computed.
  entry_handles`), carries a registered op tag
  (:data:`~repro.bdd.computed.REGISTERED_OPS`), and holds a completed
  result (never ``None`` — kernels must not leave in-progress markers
  behind, in particular not across a governor abort);
* **bookkeeping** — the node counter matches the unique table, every
  live GC root is present, and no node's structural reference count is
  below a fresh parent-arc recount;
* **representation** — the store's own checks (column lengths,
  terminal fields, free-list consistency) via ``ArrayStore.check``.

Diagnostics are precise (level, repr, counts) so a mutation test — or a
real regression — pins the corruption to the check that caught it.

Set ``REPRO_SANITIZE=1`` to arm the sanitizer at runtime: every
garbage collection verifies the surviving graph, and every
``REPRO_SANITIZE_STRIDE``-th GC safe point (default 50) verifies
managers up to ``REPRO_SANITIZE_LIMIT`` nodes (default 5000) — full
sweeps at every safe point, or on big managers, would dominate the
run.  :class:`SanitizerError` carries the full diagnostic list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .computed import REGISTERED_OPS, entry_handles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manager import Manager

#: Safe-point sweeps are skipped above this many live nodes unless
#: REPRO_SANITIZE_LIMIT overrides it.
DEFAULT_NODE_LIMIT = 5000

#: Safe points between armed sweeps unless REPRO_SANITIZE_STRIDE
#: overrides it (1 = sweep at every safe point).
DEFAULT_STRIDE = 50


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation found by the sanitizer."""

    #: machine-readable check name, e.g. ``"order"`` or ``"duplicate"``
    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


class SanitizerError(AssertionError):
    """Raised by ``debug_check`` when the graph is corrupt."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = diagnostics
        lines = "\n".join(f"  {d}" for d in diagnostics)
        super().__init__(
            f"manager failed debug_check with "
            f"{len(diagnostics)} diagnostic(s):\n{lines}")


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests auto-armed checking."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def sanitize_node_limit() -> int:
    """Node bound for safe-point sweeps (``REPRO_SANITIZE_LIMIT``)."""
    try:
        return int(os.environ["REPRO_SANITIZE_LIMIT"])
    except (KeyError, ValueError):
        return DEFAULT_NODE_LIMIT


def sanitize_stride() -> int:
    """Safe points between armed sweeps (``REPRO_SANITIZE_STRIDE``).

    1 sweeps at every safe point (maximum precision, maximum cost);
    the default trades detection latency of a few dozen operations for
    an overhead small enough to run the whole suite sanitized.
    """
    try:
        return max(1, int(os.environ["REPRO_SANITIZE_STRIDE"]))
    except (KeyError, ValueError):
        return DEFAULT_STRIDE


def check_manager(manager: "Manager",
                  check_cache: bool = True) -> list[Diagnostic]:
    """Run every invariant check; returns the diagnostics (empty: ok)."""
    out: list[Diagnostic] = []
    report = out.append
    store = manager.store
    level_of, hi_of, lo_of = store.level_of, store.hi_of, store.lo_of
    is_term = store.is_terminal
    is_live = store.is_live
    describe = store.describe

    # -- the store's representation checks -----------------------------
    store.check(lambda check, message: report(Diagnostic(check, message)))

    def fields_of(handle: Any) -> tuple[int, bool] | None:
        """(level, is_terminal) of a handle, None when unreadable.

        A corrupt table can record children that are not valid handles
        at all (wrong type, out-of-range id); the sanitizer must
        describe them, not crash on the accessor.
        """
        try:
            return level_of(handle), is_term(handle)
        except (IndexError, TypeError, AttributeError, OverflowError):
            return None

    # -- unique table --------------------------------------------------
    count = 0
    triples: dict[tuple[int, int, int], Any] = {}
    arcs: dict[Any, int] = {}
    for level, key_hi, key_lo, node in store.iter_table():
        count += 1
        where = describe(node)
        if is_term(node):
            report(Diagnostic(
                "table", f"{where} at level {level}: terminal "
                f"stored in the unique table"))
            continue
        node_level = level_of(node)
        if node_level != level:
            report(Diagnostic(
                "level-sync",
                f"{where} stored in subtable {level} but carries "
                f"level {node_level}"))
        hi, lo = hi_of(node), lo_of(node)
        if not (hi == key_hi and lo == key_lo):
            report(Diagnostic(
                "key-sync",
                f"{where}: children ({describe(hi)}, "
                f"{describe(lo)}) disagree with its "
                f"unique-table key ({describe(key_hi)}, "
                f"{describe(key_lo)})"))
        if hi == lo:
            report(Diagnostic(
                "redundant",
                f"{where}: hi and lo are the same node "
                f"({describe(hi)}); redundant nodes must be "
                f"collapsed by reduction"))
        for label, child in (("hi", hi), ("lo", lo)):
            if child is None:
                report(Diagnostic(
                    "dangling",
                    f"{where}: {label} child is None"))
                continue
            fields = fields_of(child)
            if fields is None:
                report(Diagnostic(
                    "dangling",
                    f"{where}: {label} child {describe(child)} "
                    f"is not a valid handle"))
                continue
            child_level, child_term = fields
            if not child_term and child_level <= node_level:
                report(Diagnostic(
                    "order",
                    f"{where}: {label} child {describe(child)} "
                    f"does not lie strictly below level "
                    f"{node_level}"))
            if not is_live(child):
                report(Diagnostic(
                    "dangling",
                    f"{where}: {label} child {describe(child)} "
                    f"is not in the unique table"))
            arcs[child] = arcs.get(child, 0) + 1
        triple = (node_level, hi, lo)
        other = triples.get(triple)
        if other is not None and not other == node:
            report(Diagnostic(
                "duplicate",
                f"duplicate (level, hi, lo) triple at level "
                f"{node_level}: {where} duplicates "
                f"{describe(other)} — hash-consing is broken"))
        else:
            triples[triple] = node

    # -- node accounting ----------------------------------------------
    if count != store.num_nodes:
        report(Diagnostic(
            "count",
            f"unique table holds {count} nodes but the manager "
            f"counter says {store.num_nodes}"))

    # -- reference counts ----------------------------------------------
    # Structural refs only ever exceed the fresh parent-arc recount
    # (external Function roots are added on top at GC time), so a ref
    # below the recount means a decrement was lost or misapplied.
    ref = store.ref
    for node in store.iter_nodes():
        expected = arcs.get(node, 0)
        if ref[node] < expected:
            report(Diagnostic(
                "refcount",
                f"{describe(node)}: ref={ref[node]} below its "
                f"{expected} parent arc(s)"))

    # -- root tracking vs. a fresh reachability sweep -------------------
    reachable: set[int] = set()
    stack = list(manager.live_root_handles())
    for root in stack:
        if not is_live(root):
            report(Diagnostic(
                "root",
                f"live Function root {describe(root)} is not in the "
                f"unique table — GC root tracking is out of sync"))
    while stack:
        node = stack.pop()
        if node is None or fields_of(node) is None or is_term(node) \
                or node in reachable:
            continue
        reachable.add(node)
        stack.append(hi_of(node))
        stack.append(lo_of(node))
    if len(reachable) > count:
        report(Diagnostic(
            "root",
            f"reachability sweep found {len(reachable)} internal "
            f"nodes but the unique table holds only {count}"))

    # -- computed table ------------------------------------------------
    if check_cache:
        interned = manager.computed.interned_count
        for op, key, result in manager.computed.entries():
            if result is None:
                # A probe's get signals a miss with None, so a None
                # result is unreachable garbage — and the signature of a
                # kernel that parked an in-progress marker and aborted.
                report(Diagnostic(
                    "cache-incomplete",
                    f"computed-table entry for op {op!r} key {key!r} "
                    f"holds None instead of a completed result"))
            if op not in REGISTERED_OPS:
                report(Diagnostic(
                    "cache-op",
                    f"computed-table entry {key!r} uses unregistered "
                    f"op tag {op!r}"))
                continue
            nodes, idents = entry_handles(key, result)
            stale = [describe(node) for node in nodes
                     if not is_live(node)]
            stale += [f"interned id {ident}" for ident in idents
                      if ident >= interned]
            if stale:
                report(Diagnostic(
                    "cache-dangling",
                    f"computed-table entry for op {op!r} references "
                    f"{', '.join(stale)}, which "
                    f"{'is' if len(stale) == 1 else 'are'} not live"))
    return out
