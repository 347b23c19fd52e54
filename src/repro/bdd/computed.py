"""The computed table: a bounded, op-tagged operation cache.

CUDD bounds its computed table to a fixed number of buckets and resolves
collisions by *overwriting* the incumbent entry — losing a memoized
result only costs recomputation, never correctness, because the unique
table re-canonicalizes anything that is re-derived.  This module
reproduces that policy:

* ``limit=None`` — unbounded ``dict`` storage (the seed behaviour).
* ``limit=N`` — a fixed array of ``N`` buckets indexed by a hash of the
  key; inserting into an occupied bucket evicts the previous entry
  (CUDD's "overwrite on collision").

Packed keys
-----------
Like CUDD's fixed-size cache records, every key is one ``int``: a small
*opcode* in the low :data:`OP_BITS` bits and up to three operand fields
of :data:`FIELD_BITS` bits each above it (the width the unique table
already assumes for node ids)::

    key = opcode | a << 8 | b << 40 | c << 72

An operand is a node id, or an *interned id* standing for a value that
is not a node — a quantified level set, a cofactor assignment, a
substitution.  :meth:`ComputedTable.intern` maps such a value to a
small int that stays valid until the next :meth:`ComputedTable.clear`,
which flushes the interned values together with the entries.  Keys and
results are plain ints, so neither the entries nor the dict holding
them are tracked by CPython's cyclic garbage collector.

The probe pair
--------------
A kernel takes one ``(get, put)`` pair from :meth:`ComputedTable.probes`
at entry and probes with it in its loop: ``get(key)`` returns the
memoized result or None, ``put(key, result)`` memoizes.  For an
unbounded table the pair is the entries dict's own bound ``get`` and
``__setitem__``, so a probe is one C call with no bookkeeping.  For a
bounded table it is the table's bucket functions, which overwrite on
collision and count each eviction against the evicted entry's op
(decoded from its key by :func:`op_of`).  The kernel counts its hits and
misses in locals and hands them to :meth:`ComputedTable.tally` with its
op tag (``"and"``, ``"ite"``, ``"exists"``, ...) once, in a ``finally``,
so an aborted kernel still reports the lookups it made.
:meth:`ComputedTable.stats` snapshots the per-op counters for
:attr:`repro.bdd.manager.Manager.stats`.  :func:`register_op` assigns
each tag its opcode and records the key layout the graph sanitizer uses
to decode entries (:func:`entry_handles`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any, Hashable

#: Low key bits holding the opcode.
OP_BITS = 8
#: Bits of each operand field (node ids stay below 2**32).
FIELD_BITS = 32
_FIELD_MASK = (1 << FIELD_BITS) - 1
_OP_MASK = (1 << OP_BITS) - 1
#: Multiplier spreading packed keys over the buckets of a bounded
#: table (Fibonacci hashing: a key's low bits are its opcode, so the
#: key itself is a poor bucket index).
_MIX = 0x9E3779B97F4A7C15

#: Canonical op tags -> opcode.  Every kernel must tally its lookups
#: under a tag from this registry (:meth:`ComputedTable.tally` rejects
#: any other tag the first time it sees it; the graph sanitizer checks
#: stored entries), so per-op cache statistics stay meaningful and a
#: rogue insert is attributable.
REGISTERED_OPS: dict[str, int] = {}

#: opcode -> (tag, operand layout, result kind); see :func:`register_op`.
_LAYOUTS: list[tuple[str, str, str]] = []


def register_op(tag: str, layout: str = "nn>n") -> str:
    """Register (and return) a computed-table op tag.

    ``layout`` describes the tag's packed keys for the sanitizer: one
    letter per operand field (``n`` a node id, ``i`` an interned id),
    then ``>`` and the result kind (``n`` a node id, ``b`` a bool).
    Idempotent; call at import time next to the kernel that uses the
    tag.  Returns the tag so it can be bound to a module constant.
    """
    fields, _, result = layout.partition(">")
    if len(fields) > 3 or set(fields) - {"n", "i"} \
            or result not in ("n", "b"):
        raise ValueError(f"bad computed-table key layout {layout!r}")
    code = REGISTERED_OPS.get(tag)
    if code is not None:
        if _LAYOUTS[code][1:] != (fields, result):
            raise ValueError(f"op tag {tag!r} already registered with "
                             f"layout {'>'.join(_LAYOUTS[code][1:])!r}")
        return tag
    if len(_LAYOUTS) > _OP_MASK:
        raise ValueError("computed-table opcode space exhausted")
    REGISTERED_OPS[tag] = len(_LAYOUTS)
    _LAYOUTS.append((tag, fields, result))
    return tag


# Binary operators (repro.bdd.operations._OP_TABLES) and the other
# kernels' tags.
for _tag in ("and", "or", "xor", "xnor", "nand", "nor", "imp", "diff",
             "constrain", "restrict"):
    register_op(_tag)
register_op("not", "n>n")
register_op("ite", "nnn>n")
register_op("leq", "nn>b")
# Cofactor assignments, substitutions and quantified level sets are
# interned.
register_op("cof", "ni>n")
register_op("vcomp", "ni>n")
register_op("exists", "ni>n")
register_op("forall", "ni>n")
register_op("andex", "nni>n")


def pack(tag: str, *fields: int) -> int:
    """The packed key of ``tag`` over the given operand fields.

    Kernels inline this arithmetic in their hot loops; it is spelled
    out here for everything else.
    """
    key = REGISTERED_OPS[tag]
    for i, field in enumerate(fields):
        key |= field << (OP_BITS + i * FIELD_BITS)
    return key


def op_of(key: Hashable) -> str:
    """The op tag a stored key was packed for (a placeholder tag that
    is not registered when the key is not a packed int)."""
    if not isinstance(key, int) or key < 0:
        return "?"
    code = key & _OP_MASK
    return _LAYOUTS[code][0] if code < len(_LAYOUTS) \
        else f"<opcode {code}>"


def entry_handles(key: int, result: Any) -> tuple[list[int], list[int]]:
    """``(node ids, interned ids)`` a stored entry refers to.

    Node ids come from the key's node fields and, for node-valued ops,
    the result (unless it is None, the sanitizer's "incomplete" case).
    Used by the graph sanitizer's cache-liveness sweep.
    """
    _, fields, result_kind = _LAYOUTS[key & _OP_MASK]
    nodes: list[int] = []
    interned: list[int] = []
    for i, kind in enumerate(fields):
        value = key >> (OP_BITS + i * FIELD_BITS) & _FIELD_MASK
        (nodes if kind == "n" else interned).append(value)
    if result_kind == "n" and result is not None:
        nodes.append(result)
    return nodes, interned


@dataclass(frozen=True)
class CacheOpStats:
    """Hit/miss/eviction counters of one operation tag."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the table (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


# Indices into the mutable per-op counter records.
_HITS, _MISSES, _EVICTIONS = 0, 1, 2


class ComputedTable:
    """Memoization table shared by all manager-level BDD operations.

    Keys are packed ints (see the module docstring); values are node
    ids — or plain values for predicate caches such as the containment
    test.  Kernels probe it through :meth:`probes` and report their
    hits and misses through :meth:`tally`; the key's opcode already
    partitions the key space, so the op tag only attributes statistics.
    """

    __slots__ = ("_limit", "_entries", "_keys", "_results", "_occupied",
                 "_ops", "_interned")

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("cache_limit must be positive or None")
        self._limit = limit
        self._entries: dict[int, Any] = {}
        #: bounded storage: key and result per bucket
        self._keys: list[int | None] = [None] * (limit or 0)
        self._results: list[Any] = [None] * (limit or 0)
        self._occupied = 0
        #: op tag -> [hits, misses, evictions]
        self._ops: dict[str, list[int]] = {}
        #: interned value -> its id in packed keys
        self._interned: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @property
    def limit(self) -> int | None:
        """Maximum number of entries (None: unbounded)."""
        return self._limit

    # ------------------------------------------------------------------
    # The memoization protocol
    # ------------------------------------------------------------------

    def intern(self, value: Hashable) -> int:
        """Small int standing for ``value`` in packed keys.

        Valid until the next :meth:`clear`, which drops every entry
        that could still refer to it.
        """
        ident = self._interned.get(value)
        if ident is None:
            ident = self._interned[value] = len(self._interned)
        return ident

    def probes(self) -> tuple[Callable[[int], Any],
                              Callable[[int, Any], None]]:
        """The ``(get, put)`` pair a kernel probes the table with.

        ``get(key)`` returns the memoized result for ``key`` or None;
        ``put(key, result)`` memoizes ``result``.  Unbounded, these are
        the entries dict's own ``get`` and ``__setitem__``; bounded,
        the bucket functions (see the module docstring).  Neither
        counts hits or misses: the caller reports them through
        :meth:`tally`.  The pair stays valid across :meth:`clear`.
        """
        if self._limit is None:
            entries = self._entries
            return entries.get, entries.__setitem__
        return self._bucket_get, self._bucket_put

    def tally(self, op: str, hits: int, misses: int) -> None:
        """Add ``hits`` and ``misses`` to ``op``'s counters (a kernel's
        lookups, reported once when it returns or aborts).

        An ``op`` outside :data:`REGISTERED_OPS` raises ``ValueError``;
        the check runs once per op per table, when its record is made.
        """
        if not hits and not misses:
            return
        record = self._ops.get(op)
        if record is None:
            if op not in REGISTERED_OPS:
                raise ValueError(f"computed-table op tag {op!r} is not "
                                 f"registered; add it with register_op()")
            self._ops[op] = [hits, misses, 0]
        else:
            record[_HITS] += hits
            record[_MISSES] += misses

    def _bucket_get(self, key: int) -> Any | None:
        """Bounded ``get``: the result in ``key``'s bucket if the
        bucket holds ``key``."""
        index = (key * _MIX >> 64) % len(self._keys)
        return self._results[index] if self._keys[index] == key else None

    def _bucket_put(self, key: int, result: Any) -> None:
        """Bounded ``put``: overwrite ``key``'s bucket, counting an
        eviction against the incumbent's op when it holds another key
        (CUDD's overwrite-on-collision policy)."""
        index = (key * _MIX >> 64) % len(self._keys)
        incumbent = self._keys[index]
        if incumbent is None:
            self._occupied += 1
        elif incumbent != key:
            evicted = op_of(incumbent)
            record = self._ops.get(evicted)
            if record is None:
                record = self._ops[evicted] = [0, 0, 0]
            record[_EVICTIONS] += 1
        self._keys[index] = key
        self._results[index] = result

    def clear(self) -> int:
        """Drop every entry and interned value (GC / reordering flush);
        returns the number of entries dropped.

        Flushes are not counted as evictions: an eviction is a capacity
        decision, a flush invalidates results whose nodes may die.
        """
        dropped = len(self)
        self._entries.clear()
        self._keys[:] = [None] * len(self._keys)
        self._results[:] = [None] * len(self._results)
        self._occupied = 0
        self._interned.clear()
        return dropped

    def __len__(self) -> int:
        return self._occupied if self._limit is not None \
            else len(self._entries)

    @property
    def interned_count(self) -> int:
        """Values interned since the last flush (valid ids are below)."""
        return len(self._interned)

    def entries(self) -> Iterator[tuple[str, int, Any]]:
        """Iterate ``(op, key, result)`` over the stored entries.

        The op tag is decoded from the key's opcode (:func:`op_of`).
        Used by the graph sanitizer; not a hot path.
        """
        if self._limit is None:
            for key, result in self._entries.items():
                yield op_of(key), key, result
            return
        for slot, result in zip(self._keys, self._results):
            if slot is not None:
                yield op_of(slot), slot, result

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, CacheOpStats]:
        """Immutable per-op snapshot of the hit/miss/eviction counters."""
        return {op: CacheOpStats(hits=r[_HITS], misses=r[_MISSES],
                                 evictions=r[_EVICTIONS])
                for op, r in sorted(self._ops.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "unbounded" if self._limit is None else f"/{self._limit}"
        return f"<ComputedTable {len(self)}{bound} entries>"
