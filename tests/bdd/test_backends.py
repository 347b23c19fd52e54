"""The node store: its name, its columns and its representation checks.

One store ships (:class:`~repro.bdd.arraystore.ArrayStore`), so these
tests cover what is specific to it: name resolution, the terminal ids,
the GC sweep and reference recount, governor unwind over the flat
columns, the sanitizer checks on a swept store (its own representation
— column lengths, terminals, the free list — and the graph checks
among free slots and recycled ids), and the guarantees that keep the
BDD heap out of CPython's cyclic garbage collector.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdd import InjectedAbort, Manager, SanitizerError, arraystore
from repro.bdd.arraystore import FREE_LEVEL, ArrayStore
from repro.bdd.backend import DEFAULT_BACKEND, resolve_backend
from repro.fsm.am2910 import am2910
from repro.fsm.encode import encode
from repro.reach.bfs import bfs_reachability
from repro.reach.transition import TransitionRelation

from ..helpers import random_function, truth_table

NVARS = 10
NAMES = [f"x{i}" for i in range(NVARS)]
SEED = 20260808


def seeded_functions(manager: Manager, count: int = 4):
    """Deterministic random DNFs — same seed, same functions."""
    rng = random.Random(SEED)
    variables = [manager.var(name) for name in NAMES]
    return [random_function(manager, variables, rng,
                            terms=5 + i, width=3) for i in range(count)]


class TestRegistry:
    def test_default_backend(self):
        assert resolve_backend() == DEFAULT_BACKEND == "array"
        assert isinstance(Manager().store, ArrayStore)

    def test_unknown_backend_rejected(self):
        for name in ("object", "linked-list"):
            with pytest.raises(ValueError, match="known: array"):
                resolve_backend(name)
            with pytest.raises(ValueError, match="known: array"):
                Manager(backend=name)

    def test_manager_reports_backend(self):
        for manager in (Manager(NAMES), Manager(NAMES, backend="array")):
            assert manager.backend == "array"
            assert manager.stats.as_dict()["backend"] == "array"

    def test_array_terminal_handles(self):
        store = ArrayStore()
        assert store.zero == 0 and store.one == 1
        assert store.is_terminal(0) and store.is_terminal(1)
        assert not store.is_terminal(2)
        assert store.value_of(0) == 0 and store.value_of(1) == 1


class TestSweepPaths:
    """The one GC sweep, and what stays off the import path."""

    def test_sweep_keeps_functions_and_recounts_refs(self):
        manager = Manager(NAMES)
        kept = seeded_functions(manager)[:2]
        tables = [truth_table(f, NAMES) for f in kept]
        seeded_functions(manager, count=6)  # garbage for the sweep
        assert manager.collect_garbage() > 0
        # Every ref is exactly a fresh recount: the parent arcs, one
        # per root, and the permanent reference of each terminal.
        store = manager.store
        fresh = [0] * len(store.ref)
        for node in store.iter_nodes():
            fresh[store.hi[node]] += 1
            fresh[store.lo[node]] += 1
        for root in manager.live_root_handles():
            fresh[root] += 1
        fresh[0] += 1
        fresh[1] += 1
        assert list(store.ref) == fresh
        assert [truth_table(f, NAMES) for f in kept] == tables
        assert manager.debug_check() == []

    @pytest.mark.parametrize("module", ["numpy", "multiprocessing",
                                        "repro.harness"])
    def test_import_leaves_module_unloaded(self, module):
        """Importing the CLI loads neither numpy (nothing imports it)
        nor the experiment harness and its process pool (only the
        commands that print tables import them)."""
        probe = f"import sys, repro.cli; print({module!r} in sys.modules)"
        src = str(Path(arraystore.__file__).parents[2])
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "False"


class TestArrayGovernor:
    """Fault injection must unwind the flat store cleanly."""

    @pytest.fixture(autouse=True)
    def _no_env_injection(self, monkeypatch):
        monkeypatch.delenv("REPRO_INJECT_ABORT", raising=False)

    def workload(self):
        manager = Manager([f"x{i}" for i in range(14)], backend="array")
        rng = random.Random(SEED)
        variables = [manager.var(f"x{i}") for i in range(14)]
        f = random_function(manager, variables, rng, terms=18, width=4)
        g = random_function(manager, variables, rng, terms=18, width=4)
        return manager, f, g

    def test_injected_abort_unwinds_clean(self):
        manager, f, g = self.workload()
        manager.governor.inject_abort_after(1, "apply")
        with pytest.raises(InjectedAbort):
            f & g
        assert manager.debug_check() == []
        # The op must succeed — and be correct — on retry.
        manager.governor.clear_injection()
        expected = [a and b for a, b in
                    zip(truth_table(f, manager.var_names),
                        truth_table(g, manager.var_names))]
        assert truth_table(f & g, manager.var_names) == expected

    def test_env_injection_arms_array_manager(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_ABORT", "apply:1")
        manager = Manager([f"x{i}" for i in range(14)], backend="array")
        assert manager.governor.injection_pending
        rng = random.Random(SEED)
        variables = [manager.var(f"x{i}") for i in range(14)]
        with pytest.raises(InjectedAbort):
            random_function(manager, variables, rng, terms=18, width=4)
        assert manager.debug_check() == []


@pytest.mark.no_sanitize
class TestArraySanitizer:
    """debug_check must understand the store's own representation.

    Corruption goes through the ``array('q')`` columns, the free list
    and the packed-int unique tables of a store that has been swept, so
    free slots and recycled ids sit among the live nodes.
    test_sanitize.py seeds the same graph-level corruptions (ordering,
    reduction, hash-consing, refcounts, roots) in a fresh manager and
    covers the computed-table checks.
    """

    def build(self):
        manager = Manager([f"x{i}" for i in range(6)], backend="array")
        variables = [manager.var(f"x{i}") for i in range(6)]
        a, b, c, d, e, g = variables
        garbage = [(a ^ e) & (g | ~c), e.ite(d ^ g, b | ~e), c ^ d ^ e]
        del garbage
        store = manager.store
        assert manager.collect_garbage() > 0
        freed = set(store._free)
        functions = [(a & b) | (c ^ d), a.ite(b | c, ~d)]
        # Some live nodes took recycled ids; some slots are still free.
        assert freed - set(store._free) and store._free
        return manager, store, functions

    @staticmethod
    def checks_of(manager) -> set[str]:
        return {d.check
                for d in manager.debug_check(raise_on_error=False)}

    @staticmethod
    def internal_ids(store) -> list[int]:
        return sorted(store.iter_nodes())

    def test_clean_array_manager_passes(self):
        manager, _, _ = self.build()
        assert manager.debug_check() == []

    def test_swapped_children_detected(self):
        manager, store, _ = self.build()
        victim = max(self.internal_ids(store), key=store.level.__getitem__)
        store.hi[victim], store.lo[victim] = store.lo[victim], store.hi[victim]
        assert "key-sync" in self.checks_of(manager)

    def test_redundant_node_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if store.hi[n] >= 2)
        store.lo[victim] = store.hi[victim]
        assert "redundant" in self.checks_of(manager)

    def test_ordering_violation_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if store.hi[n] >= 2)
        store.level[victim] = store.level[store.hi[victim]] + 1
        found = self.checks_of(manager)
        assert "order" in found
        assert "level-sync" in found

    def test_duplicate_triple_detected(self):
        manager, store, _ = self.build()
        victim = self.internal_ids(store)[0]
        level = store.level[victim]
        # Smuggle a clone of the victim's triple under a bogus key.
        clone = len(store.level)
        store.level.append(level)
        store.hi.append(store.hi[victim])
        store.lo.append(store.lo[victim])
        store.ref.append(0)
        store._tables[level][1 << 50 | clone] = clone
        manager.store._count += 1
        found = self.checks_of(manager)
        assert "duplicate" in found
        assert "key-sync" in found

    def test_dangling_child_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if store.lo[n] >= 2)
        # Point lo at an id with no slot in the columns at all.
        store.lo[victim] = len(store.level) + 7
        assert "dangling" in self.checks_of(manager)

    def test_lost_refcount_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if store.hi[n] >= 2)
        store.ref[store.hi[victim]] = 0
        assert "refcount" in self.checks_of(manager)

    def test_stale_root_detected(self):
        manager, store, functions = self.build()
        root = functions[0].node
        assert root >= 2
        del store._tables[store.level[root]][
            store.hi[root] << 32 | store.lo[root]]
        manager.store._count -= 1
        assert "root" in self.checks_of(manager)

    def test_node_count_mismatch_detected(self):
        manager, _, _ = self.build()
        manager.store._count += 3
        assert "count" in self.checks_of(manager)

    def test_freed_child_detected(self):
        manager, store, functions = self.build()
        # Free a slot by hand, then point a live node at it: the slot
        # carries FREE_LEVEL, which must read as a dead child.
        victim = next(n for n in self.internal_ids(store)
                      if store.lo[n] >= 2)
        orphan = store.lo[victim]
        level = store.level[orphan]
        del store._tables[level][(store.hi[orphan] << 32)
                                 | store.lo[orphan]]
        store.level[orphan] = FREE_LEVEL
        store._free.append(orphan)
        manager.store._count -= 1
        found = self.checks_of(manager)
        assert "dangling" in found

    def test_corrupted_terminal_detected(self):
        manager, store, _ = self.build()
        store.level[0] = 5
        assert "terminal" in self.checks_of(manager)

    def test_column_length_mismatch_detected(self):
        manager, store, _ = self.build()
        store.ref.append(0)
        assert "table" in self.checks_of(manager)

    def test_live_id_on_free_list_detected(self):
        manager, store, _ = self.build()
        store._free.append(self.internal_ids(store)[0])
        assert "table" in self.checks_of(manager)

    def test_env_arming_sweeps_array_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        manager, store, functions = self.build()
        # Corrupt a *live* root: GC sweeps before it sanitizes, so a
        # dead victim would simply be collected.
        victim = functions[0].node
        store.hi[victim], store.lo[victim] = store.lo[victim], store.hi[victim]
        with pytest.raises(SanitizerError):
            manager.collect_garbage()


class TestCollectorFootprint:
    """The BDD heap stays out of CPython's cyclic garbage collector.

    Unique-table dicts and computed-table entries hold only ints, and
    CPython neither tracks such dicts nor allocates a tracked object
    per entry, so a traversal's heap costs the collector nothing.
    """

    def test_traversal_heap_is_untracked(self):
        encoded = encode(am2910(3, 2))
        result = bfs_reachability(TransitionRelation(encoded),
                                  encoded.initial_states())
        assert result.complete
        manager = encoded.manager
        entries = list(manager.computed.entries())
        assert entries
        assert all(type(key) is int for _, key, _ in entries)
        assert all(type(value) in (int, bool) for _, _, value in entries)
        tables = manager.store._tables
        assert tables and not any(gc.is_tracked(t) for t in tables)
        assert not gc.is_tracked(manager.computed._entries)
