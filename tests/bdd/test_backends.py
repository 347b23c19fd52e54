"""Differential suite: ObjectStore and ArrayStore must agree.

Every public operation is run against *both* backends in the same
process on identical inputs; truth tables, node counts, minterm
enumerations and statistics must match exactly.  The second half
covers the ArrayStore-specific robustness surfaces — governor fault
injection and the sanitizer's understanding of flat column stores —
mirroring the object-backend coverage in test_governor.py and
test_sanitize.py.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import InjectedAbort, Manager, arraystore
from repro.bdd.arraystore import FREE_LEVEL, ArrayStore
from repro.bdd.backend import (BACKENDS, DEFAULT_BACKEND, ObjectStore,
                               create_store, resolve_backend)
from repro.bdd.io import dump, load, transfer
from repro.bdd.operations import cofactor_sizes_node
from repro.bdd.restrict import constrain, restrict

from ..helpers import random_function, truth_table

NVARS = 10
NAMES = [f"x{i}" for i in range(NVARS)]
SEED = 20260808


def manager_pair() -> tuple[Manager, Manager]:
    """One manager per backend, same variables, in the same process."""
    return (Manager(NAMES, backend="object"),
            Manager(NAMES, backend="array"))


def seeded_functions(manager: Manager, count: int = 4):
    """Deterministic random DNFs — same seed, same functions."""
    rng = random.Random(SEED)
    variables = [manager.var(name) for name in NAMES]
    return [random_function(manager, variables, rng,
                            terms=5 + i, width=3) for i in range(count)]


def assert_same_function(f, g) -> None:
    """Semantic and structural agreement across two managers."""
    assert truth_table(f, NAMES) == truth_table(g, NAMES)
    assert len(f) == len(g)
    assert f.sat_count() == g.sat_count()


class TestRegistry:
    def test_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend() == DEFAULT_BACKEND == "object"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert resolve_backend() == "array"
        assert isinstance(create_store(), ArrayStore)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert resolve_backend("object") == "object"
        assert isinstance(create_store("object"), ObjectStore)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="array.*object|object.*array"):
            create_store("linked-list")

    def test_registry_names_match_classes(self):
        create_store("array")  # force lazy registration
        for name, factory in BACKENDS.items():
            assert factory().name == name

    def test_manager_reports_backend(self):
        obj, arr = manager_pair()
        assert obj.backend == "object"
        assert arr.backend == "array"
        assert obj.stats.as_dict()["backend"] == "object"
        assert arr.stats.as_dict()["backend"] == "array"

    def test_array_terminal_handles(self):
        store = create_store("array")
        assert store.zero == 0 and store.one == 1
        assert store.is_terminal(0) and store.is_terminal(1)
        assert not store.is_terminal(2)
        assert store.value_of(0) == 0 and store.value_of(1) == 1


class TestDifferential:
    def test_random_functions_agree(self):
        obj, arr = manager_pair()
        for f, g in zip(seeded_functions(obj), seeded_functions(arr)):
            assert_same_function(f, g)
        assert len(obj) == len(arr)
        assert obj.level_sizes() == arr.level_sizes()

    def test_apply_ops_agree(self):
        obj, arr = manager_pair()
        (fo, go, *_), (fa, ga, *_) = seeded_functions(obj), \
            seeded_functions(arr)
        for op in ("__and__", "__or__", "__xor__", "__sub__"):
            assert_same_function(getattr(fo, op)(go), getattr(fa, op)(ga))
        assert_same_function(~fo, ~fa)
        assert_same_function(fo.ite(go, ~go), fa.ite(ga, ~ga))
        assert (fo <= go) == (fa <= ga)
        assert (fo == go) == (fa == ga)

    def test_quantify_agree(self):
        obj, arr = manager_pair()
        (fo, go, *_), (fa, ga, *_) = seeded_functions(obj), \
            seeded_functions(arr)
        names = NAMES[3:6]
        assert_same_function(fo.exists(names), fa.exists(names))
        assert_same_function(fo.forall(names), fa.forall(names))
        assert_same_function(fo.and_exists(go, names),
                             fa.and_exists(ga, names))

    def test_restrict_agree(self):
        obj, arr = manager_pair()
        (fo, go, *_), (fa, ga, *_) = seeded_functions(obj), \
            seeded_functions(arr)
        assert_same_function(constrain(fo, go), constrain(fa, ga))
        assert_same_function(restrict(fo, go), restrict(fa, ga))
        cube = {"x1": True, "x4": False}
        assert_same_function(fo.cofactor(cube), fa.cofactor(cube))

    def test_compose_agree(self):
        obj, arr = manager_pair()
        (fo, go, *_), (fa, ga, *_) = seeded_functions(obj), \
            seeded_functions(arr)
        assert_same_function(fo.compose({"x2": go}), fa.compose({"x2": ga}))

    def test_support_and_counting_agree(self):
        obj, arr = manager_pair()
        for f, g in zip(seeded_functions(obj), seeded_functions(arr)):
            assert f.support() == g.support()
            assert f.sat_count() == g.sat_count()
            assert len(f) == len(g)

    def test_cofactor_sizes_agree(self):
        obj, arr = manager_pair()
        for f, g in zip(seeded_functions(obj, 8), seeded_functions(arr, 8)):
            sizes = cofactor_sizes_node(obj, f.node)
            assert cofactor_sizes_node(arr, g.node) == sizes
            assert set(sizes) == obj.node_support_levels(f.node)
            for level, pair in sizes.items():
                name = obj.var_at_level(level)
                assert pair == (len(g.cofactor({name: True})),
                                len(g.cofactor({name: False})))

    def test_iter_minterms_agree(self):
        obj, arr = manager_pair()
        for f, g in zip(seeded_functions(obj), seeded_functions(arr)):
            assert list(f.iter_minterms()) == list(g.iter_minterms())

    def test_pick_one_is_model(self):
        obj, arr = manager_pair()
        for f, g in zip(seeded_functions(obj), seeded_functions(arr)):
            model = g.pick_one()
            assert model is not None
            assert g(**model) and f(**model)

    def test_gc_agrees(self):
        obj, arr = manager_pair()
        for manager in (obj, arr):
            fs = seeded_functions(manager)
            keep = fs[0]
            del fs
            manager.collect_garbage()
            assert manager.debug_check() == []
            assert len(manager) == len(keep)
        assert len(obj) == len(arr)

    def test_reorder_agrees(self):
        obj, arr = manager_pair()
        order = list(reversed(NAMES))
        results = []
        for manager in (obj, arr):
            f = seeded_functions(manager)[1]
            manager.reorder(order)
            assert manager.var_names == order
            assert manager.debug_check() == []
            results.append(f)
        assert_same_function(*results)
        assert obj.level_sizes() == arr.level_sizes()

    def test_sift_agrees(self):
        obj, arr = manager_pair()
        results = []
        for manager in (obj, arr):
            f = seeded_functions(manager)[2]
            manager.reorder()  # sifting
            assert manager.debug_check() == []
            results.append(f)
        assert truth_table(results[0], NAMES) \
            == truth_table(results[1], NAMES)
        assert obj.var_names == arr.var_names
        assert len(obj) == len(arr)

    def test_dump_load_across_backends(self):
        obj, arr = manager_pair()
        f = seeded_functions(obj)[0]
        g = load(arr, dump(f))
        assert_same_function(f, g)

    def test_transfer_across_backends(self):
        obj, arr = manager_pair()
        f = seeded_functions(obj)[0]
        g = transfer(f, arr)
        assert_same_function(f, g)
        # And back again, including a constant (handle 0 on the array
        # side — the regression that motivates membership cache checks).
        assert_same_function(transfer(g, obj), f)
        false_back = transfer(arr.false, obj)
        assert false_back.is_false


class TestSweepPaths:
    """The vectorized and portable GC sweeps are interchangeable."""

    @staticmethod
    def _collected_manager():
        manager = Manager(NAMES, backend="array")
        kept = seeded_functions(manager)[:2]
        for extra in seeded_functions(manager, count=6)[2:]:
            del extra  # garbage for the sweep to find
        manager.collect_garbage()
        return manager, kept

    @pytest.mark.skipif(not arraystore.VECTOR_SWEEP,
                        reason="numpy unavailable: only the portable "
                               "sweep can run")
    def test_portable_sweep_matches_vectorized(self, monkeypatch):
        vec_manager, vec_kept = self._collected_manager()
        monkeypatch.setattr(arraystore, "_np", None)
        por_manager, por_kept = self._collected_manager()
        vec, por = vec_manager.store, por_manager.store
        assert vec.num_nodes == por.num_nodes
        assert list(vec._level) == list(por._level)
        assert list(vec._ref) == list(por._ref)
        # The paths free in different orders but must free the same
        # slots.
        assert sorted(vec._free) == sorted(por._free)
        for f, g in zip(vec_kept, por_kept):
            assert truth_table(f, NAMES) == truth_table(g, NAMES)
        assert vec_manager.debug_check() == []
        assert por_manager.debug_check() == []


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
    """debug_check must understand flat stores: seeded corruptions.

    The object-backend twins live in test_sanitize.py; corruption here
    goes through the ``array('q')`` columns and packed-int tables.
    """

    def build(self):
        manager = Manager([f"x{i}" for i in range(6)], backend="array")
        variables = [manager.var(f"x{i}") for i in range(6)]
        a, b, c, d = variables[:4]
        functions = [(a & b) | (c ^ d), a.ite(b | c, ~d)]
        return manager, manager.store, functions

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
        victim = max(self.internal_ids(store), key=store.level_of)
        store._hi[victim], store._lo[victim] = \
            store._lo[victim], store._hi[victim]
        assert "key-sync" in self.checks_of(manager)

    def test_redundant_node_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if not store.is_terminal(store.hi_of(n)))
        store._lo[victim] = store._hi[victim]
        assert "redundant" in self.checks_of(manager)

    def test_ordering_violation_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if not store.is_terminal(store.hi_of(n)))
        store._level[victim] = store.level_of(store.hi_of(victim)) + 1
        found = self.checks_of(manager)
        assert "order" in found
        assert "level-sync" in found

    def test_duplicate_triple_detected(self):
        manager, store, _ = self.build()
        victim = self.internal_ids(store)[0]
        level = store.level_of(victim)
        # Smuggle a clone of the victim's triple under a bogus key.
        clone = len(store._level)
        store._level.append(level)
        store._hi.append(store.hi_of(victim))
        store._lo.append(store.lo_of(victim))
        store._ref.append(0)
        store._tables[level][(1 << 50) | clone] = clone
        manager._num_nodes += 1
        found = self.checks_of(manager)
        assert "duplicate" in found
        assert "key-sync" in found

    def test_dangling_child_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if not store.is_terminal(store.lo_of(n)))
        # Point lo at an id with no slot in the columns at all.
        store._lo[victim] = len(store._level) + 7
        assert "dangling" in self.checks_of(manager)

    def test_freed_child_detected(self):
        manager, store, functions = self.build()
        # Free a slot by hand, then point a live node at it: the slot
        # carries FREE_LEVEL, which must read as a dead child.
        victim = next(n for n in self.internal_ids(store)
                      if not store.is_terminal(store.lo_of(n)))
        orphan = store.lo_of(victim)
        level = store.level_of(orphan)
        del store._tables[level][(store.hi_of(orphan) << 32)
                                 | store.lo_of(orphan)]
        store._level[orphan] = FREE_LEVEL
        store._free.append(orphan)
        manager._num_nodes -= 1
        found = self.checks_of(manager)
        assert "dangling" in found

    def test_lost_refcount_detected(self):
        manager, store, _ = self.build()
        victim = next(n for n in self.internal_ids(store)
                      if not store.is_terminal(store.hi_of(n)))
        store._ref[store.hi_of(victim)] = 0
        assert "refcount" in self.checks_of(manager)

    def test_stale_root_detected(self):
        manager, store, functions = self.build()
        root = functions[0].node
        assert not store.is_terminal(root)
        del store._tables[store.level_of(root)][
            (store.hi_of(root) << 32) | store.lo_of(root)]
        manager._num_nodes -= 1
        assert "root" in self.checks_of(manager)

    def test_node_count_mismatch_detected(self):
        manager, _, _ = self.build()
        manager._num_nodes += 3
        assert "count" in self.checks_of(manager)

    def test_corrupted_terminal_detected(self):
        manager, store, _ = self.build()
        store._level[0] = 5
        assert "terminal" in self.checks_of(manager)

    def test_column_length_mismatch_detected(self):
        manager, store, _ = self.build()
        store._ref.append(0)
        assert "table" in self.checks_of(manager)

    def test_live_id_on_free_list_detected(self):
        manager, store, _ = self.build()
        store._free.append(self.internal_ids(store)[0])
        assert "table" in self.checks_of(manager)

    def test_env_arming_sweeps_array_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.bdd import SanitizerError
        manager = Manager([f"x{i}" for i in range(4)], backend="array")
        f = manager.var("x0") & manager.var("x1")
        store = manager.store
        # Corrupt the *live* root: GC sweeps before it sweeps the
        # sanitizer, so a dead victim would simply be collected.
        victim = f.node
        store._hi[victim], store._lo[victim] = \
            store._lo[victim], store._hi[victim]
        with pytest.raises(SanitizerError):
            manager.collect_garbage()
