"""The node store: struct-of-arrays over ``array('q')`` columns.

Handles are plain ``int`` node ids.  Ids 0 and 1 are the FALSE/TRUE
terminals; internal nodes start at id 2.  The four node fields live in
parallel signed 64-bit columns, public so the kernels can bind them as
locals and index them directly::

    level[id]    physical level (TERMINAL_LEVEL for terminals,
                 FREE_LEVEL for recycled slots)
    hi[id]       id of the hi child (-1 for terminals)
    lo[id]       id of the lo child (-1 for terminals)
    ref[id]      structural reference count

The unique table is one ``dict[int, int]`` per level mapping the packed
child pair ``(hi << 32) | lo`` to the node id — Python dicts hash small
ints essentially for free, which stands in for the open-addressed table
of a C implementation while keeping collision handling out of our
hands.  The packing assumes ids stay below 2**32 (4 billion nodes —
far past what this interpreter-bound code can hold in memory); the
computed table packs its keys on the same assumption
(:mod:`repro.bdd.computed`).  Nothing here is a per-node Python object,
and a dict holding only ints is not tracked by CPython's cyclic garbage
collector, so the node graph costs the collector nothing.

Swept slots go on a free list and are recycled by later ``mk`` calls,
so the columns never need compaction.  Recycling is sound because the
manager clears the computed table and metric caches at every point a
slot can be freed (garbage collection and adjacent-level swaps); a
stale id can therefore never be confused with its new occupant.  Freed
slots carry the ``FREE_LEVEL`` sentinel, so dereferencing a stale
handle fails the ``mk`` level check instead of silently mixing nodes.

Garbage collection marks from the roots into a flat byte map, frees
every unmarked slot table by table (``_sweep_portable``) and then
recounts every reference from the surviving arcs
(``_recount_refs``).  Minterm counts go through
:func:`repro.bdd.counting.minterm_count_map`, which prices by function
size; the store has no whole-column analytics and no dependency
outside the standard library.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from operator import gt
from typing import Any

__all__ = ["ArrayStore", "FREE_LEVEL", "TERMINAL_LEVEL"]

#: Level of the two terminals.  It compares greater than any variable
#: level, so ``min`` over levels always finds the top variable.
TERMINAL_LEVEL: int = sys.maxsize

#: Level sentinel stored in recycled slots; no valid level is negative,
#: so any structural check on a stale handle fails fast.
FREE_LEVEL = -1

_LO_MASK = (1 << 32) - 1


class ArrayStore:
    """Struct-of-arrays node store with integer handles.

    Attributes
    ----------
    name:
        ``"array"``, the one name ``Manager(backend=...)`` accepts.
    zero, one:
        The terminal ids 0 and 1.  Terminals are permanent: they always
        carry one artificial reference.
    level, hi, lo, ref:
        The node columns, indexed by id (see the module docstring).
    level_of, hi_of, lo_of:
        The columns' bound ``__getitem__``, for code that passes a
        single-argument accessor around; the kernels index the columns.
    is_terminal:
        ``h < 2`` as a C-level callable.
    """

    name = "array"

    def __init__(self) -> None:
        self.zero = 0
        self.one = 1
        self.level = array("q", (TERMINAL_LEVEL, TERMINAL_LEVEL))
        self.hi = array("q", (-1, -1))
        self.lo = array("q", (-1, -1))
        # Terminals are permanent: one artificial reference each.
        self.ref = array("q", (1, 1))
        #: tables[level] maps (hi << 32) | lo -> node id
        self._tables: list[dict[int, int]] = []
        self._free: list[int] = []
        self._count = 0
        self._peak = 0
        # Accessors: bound C-level array subscript (stable across
        # appends — the array object itself never changes).
        self.level_of = self.level.__getitem__
        self.hi_of = self.hi.__getitem__
        self.lo_of = self.lo.__getitem__
        # partial(gt, 2)(h) == (2 > h): terminal test without a Python
        # frame, and a TypeError (not a silent truthy NotImplemented)
        # on a non-int handle.
        self.is_terminal = partial(gt, 2)

    # -- node construction and lookup ----------------------------------

    def mk(self, level: int, hi: int, lo: int) -> int:
        """Find-or-create the reduced node ``(level, hi, lo)``."""
        if hi == lo:
            return hi
        table = self._tables[level]
        key = (hi << 32) | lo
        node = table.get(key, -1)
        if node >= 0:
            # A hit implies valid children: a live node's children are
            # below its level by construction and kept live by the ref
            # counts, so the level check below could never fire here —
            # skipping it keeps the hot path to one dict probe.
            return node
        levels = self.level
        if levels[hi] <= level or levels[lo] <= level:
            raise ValueError("children must be below the node level")
        if self._free:
            node = self._free.pop()
            levels[node] = level
            self.hi[node] = hi
            self.lo[node] = lo
            self.ref[node] = 0
        else:
            node = len(levels)
            levels.append(level)
            self.hi.append(hi)
            self.lo.append(lo)
            self.ref.append(0)
        self.ref[hi] += 1
        self.ref[lo] += 1
        table[key] = node
        self._count += 1
        if self._count > self._peak:
            self._peak = self._count
        return node

    def find(self, level: int, hi: int, lo: int) -> int | None:
        """Unique-table lookup without creating (None on a miss)."""
        if hi == lo:
            return hi
        return self._tables[level].get((hi << 32) | lo)

    def value_of(self, handle: int) -> int | None:
        """0/1 for terminals, None for internal handles."""
        return handle if handle < 2 else None

    # -- size accounting -----------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Live internal nodes."""
        return self._count

    @property
    def peak_nodes(self) -> int:
        """Historical maximum of live internal nodes."""
        return self._peak

    def level_sizes(self) -> list[int]:
        """Nodes per level, root-most first."""
        return [len(t) for t in self._tables]

    def add_level(self, level: int) -> None:
        """Insert an empty level at position ``level``.

        The manager guarantees insertion above existing levels only
        happens while the store holds no internal nodes.
        """
        self._tables.insert(level, {})

    # -- iteration -----------------------------------------------------

    def iter_nodes(self) -> Iterator[int]:
        """Every live internal id, level by level."""
        for table in self._tables:
            yield from table.values()

    def iter_table(self) -> Iterator[tuple[int, int, int, int]]:
        """Unique-table rows as ``(level, key_hi, key_lo, id)``.

        ``key_hi``/``key_lo`` are the children *as recorded in the
        table key*; on a healthy store they equal ``hi[id]`` /
        ``lo[id]``, and the sanitizer diffs them.
        """
        for level, table in enumerate(self._tables):
            for key, node in table.items():
                yield level, key >> 32, key & _LO_MASK, node

    def is_live(self, handle: Any) -> bool:
        """A terminal, or an id present in the unique table."""
        if not isinstance(handle, int) \
                or not 0 <= handle < len(self.level):
            return False
        if handle < 2:
            return True
        level = self.level[handle]
        if not 0 <= level < len(self._tables):
            return False
        key = (self.hi[handle] << 32) | self.lo[handle]
        return self._tables[level].get(key, -1) == handle

    # -- garbage collection and reordering -----------------------------

    def collect(self, roots: Iterable[int]) -> int:
        """Sweep nodes unreachable from ``roots``; returns the count.

        Also recomputes every structural reference count from scratch
        (parent arcs, plus one per root, plus the permanent terminal
        reference).  The ids of swept nodes are recycled by later
        :meth:`mk` calls, which is why the manager clears the computed
        table and metric caches at every collection.
        """
        roots = list(roots)
        hi_col, lo_col = self.hi, self.lo
        # Dense int ids let the mark set be a flat byte map — O(1)
        # unhashed probes, no per-entry allocation.
        marked = bytearray(len(self.level))
        stack = [root for root in roots if root >= 2]
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = 1
            hi = hi_col[node]
            if hi >= 2 and not marked[hi]:
                stack.append(hi)
            lo = lo_col[node]
            if lo >= 2 and not marked[lo]:
                stack.append(lo)
        reclaimed = self._sweep_portable(marked)
        self._recount_refs(roots)
        self._count -= reclaimed
        return reclaimed

    def _sweep_portable(self, marked: bytearray) -> int:
        """Free every unmarked slot; returns the count."""
        reclaimed = 0
        levels = self.level
        free = self._free
        for table in self._tables:
            dead = [key for key, node in table.items()
                    if not marked[node]]
            for key in dead:
                node = table.pop(key)
                levels[node] = FREE_LEVEL
                free.append(node)
                reclaimed += 1
        return reclaimed

    def _recount_refs(self, roots: list[int]) -> None:
        """Recompute structural reference counts from scratch."""
        ref = self.ref
        # Zero the whole column in one C-level copy (a memset, in
        # effect) instead of a Python loop over every slot.
        ref[:] = array("q", bytes(ref.itemsize * len(ref)))
        hi_col, lo_col = self.hi, self.lo
        for table in self._tables:
            for node in table.values():
                ref[hi_col[node]] += 1
                ref[lo_col[node]] += 1
        for root in roots:
            ref[root] += 1
        ref[0] += 1
        ref[1] += 1

    def swap_adjacent(self, level: int) -> None:
        """Exchange levels ``level`` and ``level + 1`` in place.

        Every id keeps denoting the same boolean function.  Structural
        reference counts must be accurate on entry and are maintained;
        nodes orphaned by the rewrite are reclaimed.  The manager
        wrapper (:func:`repro.bdd.reorder.swap_adjacent`) owns cache
        invalidation and the variable-name maps.
        """
        upper = self._tables[level]
        lower = self._tables[level + 1]
        levels, hi_col, lo_col, ref = \
            self.level, self.hi, self.lo, self.ref

        # Phase 1: classify the upper-level nodes before touching
        # anything.
        dependent: list[tuple[int, ...]] = []
        independent: list[int] = []
        for node in list(upper.values()):
            hi, lo = hi_col[node], lo_col[node]
            if levels[hi] == level + 1 or levels[lo] == level + 1:
                if levels[hi] == level + 1:
                    f11, f10 = hi_col[hi], lo_col[hi]
                else:
                    f11 = f10 = hi
                if levels[lo] == level + 1:
                    f01, f00 = hi_col[lo], lo_col[lo]
                else:
                    f01 = f00 = lo
                dependent.append((node, hi, lo, f11, f10, f01, f00))
            else:
                independent.append(node)

        # Phase 2: relabel.  Lower-level nodes rise to `level`;
        # independent upper nodes sink to `level + 1`.  Table keys are
        # child pairs, unchanged by relabelling.
        risen = list(lower.values())
        upper.clear()
        lower.clear()
        for node in risen:
            levels[node] = level
            upper[(hi_col[node] << 32) | lo_col[node]] = node
        for node in independent:
            levels[node] = level + 1
            lower[(hi_col[node] << 32) | lo_col[node]] = node

        # Phase 3: rewrite dependent nodes in place.
        maybe_dead: list[int] = []
        for node, old_hi, old_lo, f11, f10, f01, f00 in dependent:
            new_hi = self.mk(level + 1, f11, f01)
            new_lo = self.mk(level + 1, f10, f00)
            ref[new_hi] += 1
            ref[new_lo] += 1
            ref[old_hi] -= 1
            ref[old_lo] -= 1
            maybe_dead.append(old_hi)
            maybe_dead.append(old_lo)
            hi_col[node] = new_hi
            lo_col[node] = new_lo
            upper[(new_hi << 32) | new_lo] = node

        # Phase 4: reclaim nodes orphaned by the rewrites.
        for node in maybe_dead:
            self._reclaim(node)

    def _reclaim(self, node: int) -> None:
        """Free ``node`` and recursively its orphaned descendants."""
        levels, hi_col, lo_col, ref = \
            self.level, self.hi, self.lo, self.ref
        stack = [node]
        while stack:
            node = stack.pop()
            if node < 2 or ref[node]:
                continue
            level = levels[node]
            if level < 0:
                # Already reclaimed via another parent.
                continue
            table = self._tables[level]
            key = (hi_col[node] << 32) | lo_col[node]
            if table.get(key, -1) != node:
                continue
            del table[key]
            self._count -= 1
            levels[node] = FREE_LEVEL
            self._free.append(node)
            hi, lo = hi_col[node], lo_col[node]
            ref[hi] -= 1
            ref[lo] -= 1
            stack.append(hi)
            stack.append(lo)

    # -- sanitizer support ---------------------------------------------

    def describe(self, handle: object) -> str:
        """Short human-readable tag for diagnostics."""
        if not isinstance(handle, int):
            return f"non-handle {handle!r}"
        if handle < 2:
            return f"terminal {handle}"
        if 0 <= handle < len(self.level):
            return f"id {handle} L{self.level[handle]}"
        return f"id {handle} (out of range)"

    def check(self, report: Callable[[str, str], None]) -> None:
        """Representation checks: column lengths, terminals, free list.

        ``report(check_name, message)`` records one diagnostic; the
        graph checks live in :mod:`repro.bdd.sanitize`.
        """
        n = len(self.level)
        if not len(self.hi) == len(self.lo) == len(self.ref) == n:
            report("table",
                   f"column length mismatch: level={n} "
                   f"hi={len(self.hi)} lo={len(self.lo)} "
                   f"ref={len(self.ref)}")
            return
        for terminal in (0, 1):
            if self.level[terminal] != TERMINAL_LEVEL \
                    or self.hi[terminal] != -1 \
                    or self.lo[terminal] != -1:
                report("terminal",
                       f"terminal {terminal} corrupted: "
                       f"level={self.level[terminal]} "
                       f"hi={self.hi[terminal]} "
                       f"lo={self.lo[terminal]}")
        for slot in self._free:
            if not 2 <= slot < n:
                report("table", f"free-list id {slot} out of range")
            elif self.level[slot] != FREE_LEVEL:
                report("table",
                       f"free-list id {slot} has live level "
                       f"{self.level[slot]}")
        # Every allocated slot is either a terminal, free, or in the
        # unique table at its recorded level.
        in_free = set(self._free)
        for slot in range(2, n):
            if self.level[slot] == FREE_LEVEL:
                if slot not in in_free:
                    report("table",
                           f"id {slot} freed but not on the free list")
            elif not self.is_live(slot):
                report("table",
                       f"id {slot} allocated but absent from the "
                       f"unique table")
