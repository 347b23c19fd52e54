"""The BDD manager: variables, computed table, GC, over a node store.

The manager owns the semantic state — variable names and order, the
computed table, Function-handle roots, statistics, the governor — and
delegates the physical node graph to the node store
(:class:`~repro.bdd.arraystore.ArrayStore`: ``array('q')`` columns,
handles are int ids).  Canonicity is enforced by hash-consing in the
store's unique table, exactly like CUDD's; per-level subtables make the
adjacent-level swap of dynamic reordering straightforward.

Reference counting is *structural*: a node's count tracks parent arcs
plus external references.  Normal operation only ever increments;
decrements happen during :meth:`Manager.collect_garbage` (which
recomputes counts from live :class:`~repro.bdd.function.Function`
handles) and during variable swaps (which maintain them incrementally).

Memory management is CUDD-style and opt-in:

* ``cache_limit`` bounds the computed table
  (:class:`~repro.bdd.computed.ComputedTable`) to a fixed number of
  buckets with overwrite-on-collision eviction.
* ``gc_threshold`` arms *automatic garbage collection*: when the node
  count crosses the threshold, the next **safe point** — the entry of a
  Function-level operation, never inside a kernel traversal holding raw
  node handles — runs :meth:`collect_garbage`.  Code that holds raw
  handles across Function-level calls can suspend collection with
  :meth:`defer_gc`.

:attr:`Manager.stats` snapshots per-operation cache hits/misses/
evictions, GC count/pauses/reclaimed nodes, peak live nodes, and the
reorder count.  The counters only grow over the manager's life, so a
caller measuring one stretch of work subtracts two snapshots.
"""

from __future__ import annotations

import heapq
import itertools
import time
import weakref
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, NoReturn

from .arraystore import ArrayStore
from .backend import resolve_backend
from .computed import CacheOpStats, ComputedTable
from .governor import Budget, Governor
from .sanitize import (Diagnostic, SanitizerError, check_manager,
                       sanitize_enabled, sanitize_node_limit,
                       sanitize_stride)


@dataclass(frozen=True)
class ManagerStats:
    """Point-in-time snapshot of a manager's runtime counters.

    Obtained from :attr:`Manager.stats`; every later performance change
    measures itself against these numbers.
    """

    #: live internal nodes right now
    nodes: int
    #: historical maximum of live internal nodes
    peak_nodes: int
    #: declared variables
    num_vars: int
    #: entries currently memoized in the computed table
    cache_size: int
    #: configured computed-table bound (None: unbounded)
    cache_limit: int | None
    #: per-operation cache counters (op tag -> hits/misses/evictions)
    cache_per_op: dict[str, CacheOpStats] = field(default_factory=dict)
    #: garbage collections run (manual + automatic)
    gc_count: int = 0
    #: total seconds spent inside collect_garbage
    gc_pause_total: float = 0.0
    #: longest single GC pause in seconds
    gc_pause_max: float = 0.0
    #: total nodes reclaimed by GC
    gc_reclaimed: int = 0
    #: variable reorderings run
    reorder_count: int = 0
    #: governor aborts per op tag (budget/deadline/injected)
    aborts: dict[str, int] = field(default_factory=dict)
    #: degradation-ladder rungs taken, per kind (gc/subset/reorder/exact)
    degradations: dict[str, int] = field(default_factory=dict)
    #: highest live-node count observed while a budget was armed
    budget_peak_nodes: int = 0
    #: highest step count observed inside one armed budget window
    budget_peak_steps: int = 0
    #: node store the manager runs on (always "array")
    backend: str = "array"

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    @property
    def total_degradations(self) -> int:
        return sum(self.degradations.values())

    @property
    def cache_hits(self) -> int:
        return sum(s.hits for s in self.cache_per_op.values())

    @property
    def cache_misses(self) -> int:
        return sum(s.misses for s in self.cache_per_op.values())

    @property
    def cache_evictions(self) -> int:
        return sum(s.evictions for s in self.cache_per_op.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-data snapshot (JSON-ready, e.g. for BENCH_*.json rows)."""
        return {
            "nodes": self.nodes,
            "peak_nodes": self.peak_nodes,
            "num_vars": self.num_vars,
            "cache_size": self.cache_size,
            "cache_limit": self.cache_limit,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "gc_count": self.gc_count,
            "gc_pause_total": self.gc_pause_total,
            "gc_pause_max": self.gc_pause_max,
            "gc_reclaimed": self.gc_reclaimed,
            "reorder_count": self.reorder_count,
            "aborts": dict(self.aborts),
            "degradations": dict(self.degradations),
            "budget_peak_nodes": self.budget_peak_nodes,
            "budget_peak_steps": self.budget_peak_steps,
            "backend": self.backend,
        }


class Manager:
    """Create and combine BDDs over a growing set of named variables.

    Parameters
    ----------
    vars:
        Variable names to declare up front.
    cache_limit:
        Bound on the computed table (None: unbounded, the default).
    gc_threshold:
        Node count at which automatic garbage collection arms itself;
        collection then runs at the next safe point.  None (default)
        disables automatic GC — :meth:`collect_garbage` stays available
        for explicit calls.
    backend:
        Node-store name; None (default) or ``"array"``, the one store.
        See :mod:`repro.bdd.backend`.

    Example
    -------
    >>> m = Manager()
    >>> a, b = m.add_vars("a", "b")
    >>> f = a & ~b
    >>> m.sat_count(f)
    1
    """

    def __init__(self, vars: Iterable[str] = (), *,
                 cache_limit: int | None = None,
                 gc_threshold: int | None = None,
                 backend: str | None = None) -> None:
        resolve_backend(backend)
        #: the node store owning the physical node graph
        self.store = ArrayStore()
        self._level_to_var: list[str] = []
        self._var_to_level: dict[str, int] = {}
        #: computed table shared by every memoized operation
        self.computed = ComputedTable(cache_limit)
        #: live Function handles (GC roots), keyed by object identity.
        #: A WeakSet would deduplicate *equal* handles (Function defines
        #: value equality), silently dropping roots when the surviving
        #: duplicate dies — hence the explicit id-keyed weak registry.
        self._functions: dict[int, weakref.ref] = {}
        #: per-root structural-metric memos, keyed by handle.  Valid
        #: between metric safe points — GC and variable reordering
        #: invalidate them wholesale (which also caps their growth:
        #: plain dicts, since int handles cannot be weakly referenced).
        self._size_cache: dict[Any, int] = {}
        self._support_cache: dict[Any, frozenset[int]] = {}
        #: statistics, useful in benchmarks
        self.gc_count = 0
        self.reorder_count = 0
        self._gc_pause_total = 0.0
        self._gc_pause_max = 0.0
        self._gc_reclaimed = 0
        self._gc_defer = 0
        #: governor aborts per op tag, recorded by Governor.checkpoint
        self._abort_counts: dict[str, int] = {}
        #: degradation-ladder rungs taken, per kind
        self._degradations: dict[str, int] = {}
        #: per-manager resource governor (budgets, deadline, injection)
        self.governor = Governor(self.store, self._abort_counts)
        # Safe points elapsed since the last REPRO_SANITIZE sweep.
        self._sanitize_tick = 0
        # The live trigger starts at the threshold and is raised after
        # each collection (see collect_garbage) to avoid GC thrash when
        # most nodes are live.
        self.gc_threshold = gc_threshold
        for name in vars:
            self.add_var(name)

    def __reduce__(self) -> NoReturn:
        raise TypeError(
            "a Manager cannot be pickled: its nodes live in this "
            "process; ship a spec and rebuild the BDDs where they run")

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        """Name of the node store (always ``"array"``)."""
        return self.store.name

    @property
    def zero_node(self) -> Any:
        """Handle of the FALSE terminal (internal node-level API)."""
        return self.store.zero

    @property
    def one_node(self) -> Any:
        """Handle of the TRUE terminal (internal node-level API)."""
        return self.store.one

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._level_to_var)

    @property
    def var_names(self) -> list[str]:
        """Variable names in the current order, root-most first."""
        return list(self._level_to_var)

    def add_var(self, name: str, level: int | None = None) -> "Function":
        """Declare a new variable and return its projection function.

        ``level`` inserts the variable at a specific position in the
        order (default: at the bottom).  Inserting above existing levels
        is only allowed while the manager holds no internal nodes, since
        node levels are physical.
        """
        from .function import Function

        if name in self._var_to_level:
            raise ValueError(f"variable {name!r} already declared")
        if level is None:
            level = len(self._level_to_var)
        if level != len(self._level_to_var) and self.store.num_nodes:
            raise ValueError("cannot insert a variable above existing nodes")
        if level == len(self._level_to_var):
            # Appending at the bottom shifts nothing: O(1) instead of
            # rebuilding the name map (declaring n variables one by one
            # would otherwise cost O(n^2)).
            self._level_to_var.append(name)
            self.store.add_level(level)
            self._var_to_level[name] = level
        else:
            self._level_to_var.insert(level, name)
            self.store.add_level(level)
            self._var_to_level = {
                v: i for i, v in enumerate(self._level_to_var)
            }
        node = self.store.mk(level, self.store.one, self.store.zero)
        return Function(self, node)

    def add_vars(self, *names: str) -> "list[Function]":
        """Declare several variables at once, bottom of the order."""
        return [self.add_var(n) for n in names]

    def var(self, name: str) -> "Function":
        """Projection function of an existing variable."""
        from .function import Function

        level = self._var_to_level[name]
        return Function(self, self.store.mk(level, self.store.one,
                                            self.store.zero))

    def var_at_level(self, level: int) -> str:
        """Name of the variable currently at ``level``."""
        return self._level_to_var[level]

    def level_of_var(self, name: str) -> int:
        """Current level of variable ``name``."""
        return self._var_to_level[name]

    def var_handle(self, name: str) -> Any:
        """Raw projection handle (int node id) of ``name`` (internal
        node-level API)."""
        return self.store.mk(self._var_to_level[name], self.store.one,
                             self.store.zero)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def mk(self, level: int, hi: Any, lo: Any) -> Any:
        """Find-or-create the reduced node ``(level, hi, lo)``.

        Applies the ROBDD reduction rule (``hi == lo`` collapses), so the
        result canonically represents ``var(level)·hi + var(level)'·lo``.
        Children must live strictly below ``level``.
        """
        return self.store.mk(level, hi, lo)

    # ------------------------------------------------------------------
    # Constants as handles
    # ------------------------------------------------------------------

    @property
    def true(self) -> "Function":
        """The constant TRUE function."""
        from .function import Function

        return Function(self, self.store.one)

    @property
    def false(self) -> "Function":
        """The constant FALSE function."""
        from .function import Function

        return Function(self, self.store.zero)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of internal nodes owned by the manager."""
        return self.store.num_nodes

    def level_sizes(self) -> list[int]:
        """Number of nodes per level, root-most first."""
        return self.store.level_sizes()

    # ------------------------------------------------------------------
    # Memoized structural metrics
    # ------------------------------------------------------------------

    def node_size(self, node: Any) -> int:
        """Memoized ``|f|`` of the function rooted at ``node``.

        Backs :meth:`Function.__len__`; hot loops (image computation,
        reachability traces) query the size of the same root many times,
        so the graph walk runs once per root between metric safe points.
        """
        size = self._size_cache.get(node)
        if size is None:
            from .counting import bdd_size

            size = bdd_size(self.store, node)
            self._size_cache[node] = size
        return size

    def node_support_levels(self, node: Any) -> frozenset[int]:
        """Memoized support levels of the function rooted at ``node``."""
        levels = self._support_cache.get(node)
        if levels is None:
            from .traversal import support_levels

            levels = frozenset(support_levels(self.store, node))
            self._support_cache[node] = levels
        return levels

    def invalidate_metric_caches(self) -> None:
        """Drop the size/support memos.

        Called at the metric safe points: garbage collection (root
        identities may be recycled) and variable swaps (levels move, so
        cached support levels go stale).
        """
        self._size_cache.clear()
        self._support_cache.clear()

    # ------------------------------------------------------------------
    # Cache limit and function registry
    # ------------------------------------------------------------------

    @property
    def cache_limit(self) -> int | None:
        """Computed-table bound (None: unbounded)."""
        return self.computed.limit

    def register(self, function: "Function") -> None:
        """Track a Function handle as a garbage-collection root."""
        key = id(function)

        def drop(_ref: weakref.ref, _key: int = key,
                 _table: dict = self._functions) -> None:
            _table.pop(_key, None)

        self._functions[key] = weakref.ref(function, drop)

    def live_root_handles(self) -> list[Any]:
        """Root handles of all live Function handles."""
        roots = []
        for ref in list(self._functions.values()):
            function = ref()
            if function is not None:
                roots.append(function.node)
        return roots

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    @property
    def gc_threshold(self) -> int | None:
        """Node count arming automatic GC (None: disabled)."""
        return self._gc_threshold

    @gc_threshold.setter
    def gc_threshold(self, value: int | None) -> None:
        if value is not None and value <= 0:
            raise ValueError("gc_threshold must be positive or None")
        self._gc_threshold = value
        self._gc_trigger = value

    def safe_point(self) -> None:
        """Run pending automatic GC if armed — called where no raw
        node handles are held outside Function handles.

        Every Function-level operation calls this on entry; node-level
        kernel traversals never do, so collection cannot invalidate raw
        handles mid-operation.
        """
        if self._gc_trigger is not None and not self._gc_defer \
                and self.store.num_nodes >= self._gc_trigger:
            self.collect_garbage()
        elif sanitize_enabled():
            # REPRO_SANITIZE=1: verify the whole graph at every
            # REPRO_SANITIZE_STRIDE-th safe point while it is small
            # enough to sweep cheaply.  A full sweep at *every* safe
            # point is linear in the graph per operation and multiplies
            # suite wall-clock by an order of magnitude; the stride
            # keeps corruption detection within one operation batch of
            # its cause.  (collect_garbage verifies unconditionally, so
            # the big-manager case is still covered at every
            # collection.)
            self._sanitize_tick += 1
            if self._sanitize_tick >= sanitize_stride() \
                    and self.store.num_nodes <= sanitize_node_limit():
                self._sanitize_tick = 0
                self.debug_check()

    @contextmanager
    def defer_gc(self) -> "Iterator[Manager]":
        """Suspend automatic GC while holding raw node handles.

        Advanced API for algorithms that keep raw handles across
        Function-level operations; nests freely.  A collection
        postponed by the deferral runs when the outermost block exits —
        also when the body raises, so an aborted algorithm cannot leave
        the manager with GC permanently wedged off.
        """
        self._gc_defer += 1
        try:
            yield self
        finally:
            self._gc_defer -= 1
            if not self._gc_defer:
                # The exit of the outermost deferral is a safe point:
                # the raw handles the block protected are out of scope
                # (or rooted in Function handles by now).  Run the
                # postponed collection rather than waiting for the next
                # operation.
                self.safe_point()

    @contextmanager
    def with_budget(self, *, node_budget: int | None = None,
                    step_budget: int | None = None,
                    deadline: float | None = None) -> "Iterator[Manager]":
        """Enforce resource budgets on all kernels inside the block.

        ``node_budget`` bounds live + fresh unique-table nodes,
        ``step_budget`` bounds kernel loop steps inside the block, and
        ``deadline`` is wall-clock seconds from entry.  A kernel that
        trips a bound raises :class:`~repro.bdd.governor.BudgetExceeded`
        or :class:`~repro.bdd.governor.DeadlineExceeded` and unwinds
        cleanly — the manager stays consistent (``debug_check`` passes)
        and the aborted operation can be re-run, under a larger budget
        or none.  Nests: the inner budget wins while its block is
        active; the outer one is restored on exit, body raising or not.
        """
        token = self.governor.arm(Budget(node_budget=node_budget,
                                         step_budget=step_budget,
                                         deadline=deadline))
        try:
            yield self
        finally:
            self.governor.restore(token)

    def record_degradation(self, kind: str) -> None:
        """Count a degradation-ladder rung taken on this manager.

        ``kind`` names the rung (``gc``, ``subset``, ``reorder``,
        ``exact``); the counters surface in :attr:`stats` and in
        benchmark trajectory rows.
        """
        self._degradations[kind] = self._degradations.get(kind, 0) + 1

    def collect_garbage(self) -> int:
        """Remove nodes unreachable from live Function handles.

        Returns the number of nodes reclaimed.  The computed table is
        dropped wholesale, so the next operations re-derive results —
        mandatory because the store recycles the ids of swept nodes,
        and a stale cache entry could otherwise alias a fresh node.

        Only call this at a *safe point*: any raw node handle held
        outside a Function handle is invalidated.
        """
        start = time.perf_counter()
        self.invalidate_metric_caches()
        reclaimed = self.store.collect(self.live_root_handles())
        self.computed.clear()
        self.gc_count += 1
        self._gc_reclaimed += reclaimed
        pause = time.perf_counter() - start
        self._gc_pause_total += pause
        if pause > self._gc_pause_max:
            self._gc_pause_max = pause
        if self._gc_threshold is not None:
            # Raise the live trigger above the surviving population so a
            # mostly-live heap does not re-collect on every safe point.
            self._gc_trigger = max(self._gc_threshold,
                                   2 * self.store.num_nodes)
        if sanitize_enabled():
            self.debug_check()
        return reclaimed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ManagerStats:
        """Snapshot of all runtime counters (see :class:`ManagerStats`)."""
        return ManagerStats(
            nodes=self.store.num_nodes,
            peak_nodes=self.store.peak_nodes,
            num_vars=self.num_vars,
            cache_size=len(self.computed),
            cache_limit=self.computed.limit,
            cache_per_op=self.computed.stats(),
            gc_count=self.gc_count,
            gc_pause_total=self._gc_pause_total,
            gc_pause_max=self._gc_pause_max,
            gc_reclaimed=self._gc_reclaimed,
            reorder_count=self.reorder_count,
            aborts=dict(self._abort_counts),
            degradations=dict(self._degradations),
            budget_peak_nodes=self.governor.budget_peak_nodes,
            budget_peak_steps=self.governor.budget_peak_steps,
            backend=self.store.name,
        )

    # ------------------------------------------------------------------
    # Convenience forwarding (implemented in sibling modules)
    # ------------------------------------------------------------------

    def _own(self, *functions: "Function") -> None:
        """Refuse operands that belong to another manager."""
        for function in functions:
            if function.manager is not self:
                raise ValueError("operands belong to different managers")

    def ite(self, f: "Function", g: "Function", h: "Function") -> "Function":
        """If-then-else: ``f·g + f'·h``."""
        from .function import Function
        from .operations import ite_node

        self._own(f, g, h)
        self.safe_point()
        return Function(self, ite_node(self, f.node, g.node, h.node))

    def apply(self, op: str, f: "Function", g: "Function") -> "Function":
        """Apply a named binary operator (``and``, ``or``, ``xor``, ...)."""
        from .function import Function
        from .operations import apply_node

        self._own(f, g)
        self.safe_point()
        return Function(self, apply_node(self, op, f.node, g.node))

    def conjoin(self, functions: Iterable["Function"]) -> "Function":
        """AND of many functions, combining the two smallest first.

        Balanced smallest-first combination is the standard trick for
        keeping intermediate BDDs small when conjoining many partitions
        (transition relations, McMillan factors).
        """
        return self._combine(functions, "and", self.true)

    def disjoin(self, functions: Iterable["Function"]) -> "Function":
        """OR of many functions, combining the two smallest first."""
        return self._combine(functions, "or", self.false)

    def _combine(self, functions: Iterable["Function"], op: str,
                 neutral: "Function") -> "Function":
        counter = itertools.count()
        heap: list[tuple[int, int, "Function"]] = []
        for function in functions:
            self._own(function)
            heapq.heappush(heap, (len(function), next(counter), function))
        if not heap:
            return neutral
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            combined = self.apply(op, a, b)
            heapq.heappush(heap, (len(combined), next(counter), combined))
        return heap[0][2]

    def cube(self, assignment: dict[str, bool]) -> "Function":
        """Conjunction of literals, e.g. ``{"a": True, "b": False}``."""
        from .function import Function

        self.safe_point()
        store = self.store
        node = store.one
        for name in sorted(assignment,
                           key=lambda n: self._var_to_level[n],
                           reverse=True):
            level = self._var_to_level[name]
            if assignment[name]:
                node = store.mk(level, node, store.zero)
            else:
                node = store.mk(level, store.zero, node)
        return Function(self, node)

    def sat_count(self, f: "Function",
                  nvars: int | None = None) -> int:
        """Exact number of satisfying assignments over ``nvars`` variables."""
        from .counting import sat_count

        return sat_count(f, nvars)

    def reorder(self, order: Sequence[str] | None = None) -> None:
        """Reorder variables (sifting if ``order`` is None)."""
        from .reorder import set_order, sift

        if order is None:
            sift(self)
        else:
            set_order(self, order)

    def debug_check(self, raise_on_error: bool = True,
                    check_cache: bool = True) -> "list[Diagnostic]":
        """Verify every structural invariant of the node graph.

        The CUDD ``Cudd_DebugCheck`` equivalent (see
        :mod:`repro.bdd.sanitize` for the invariant list): variable
        ordering along arcs, reduction, unique-table hash-consing
        consistency, computed-table liveness and op-tag registration,
        and GC/root bookkeeping against a fresh reachability sweep.

        Returns the diagnostics found (empty list: graph is sound).
        With ``raise_on_error`` (the default) a non-empty result raises
        :class:`~repro.bdd.sanitize.SanitizerError` instead.  Under
        ``REPRO_SANITIZE=1`` this runs automatically after every
        garbage collection and at GC safe points on managers small
        enough to sweep (``REPRO_SANITIZE_LIMIT``, default 5000 nodes).
        """
        diagnostics = check_manager(self, check_cache=check_cache)
        if diagnostics and raise_on_error:
            raise SanitizerError(diagnostics)
        return diagnostics
