"""The persistent BDD store: round-trips, dedup, index semantics."""

from __future__ import annotations

import random

import pytest

from repro.bdd import Manager
from repro.store import (BDDStore, StoreError, decode_roots,
                         encode_roots, transfer)
from repro.store.format import content_address

from ..helpers import (SETTINGS, random_function, settings_manager,
                       store_digest, truth_table)

NAMES = [f"x{i}" for i in range(8)]


def build_function(setting, seed=7, terms=10):
    manager = settings_manager(setting)
    variables = manager.add_vars(*NAMES)
    rng = random.Random(seed)
    function = random_function(manager, variables, rng, terms=terms,
                               width=4)
    return manager, function


@pytest.mark.parametrize("setting", SETTINGS)
class TestRoundTrip:
    def test_save_load_exact(self, setting, tmp_path):
        manager, f = build_function(setting)
        store = BDDStore(tmp_path / "store")
        digest = store.save("f", f, tags=("unit",))
        assert len(digest) == 64

        target = settings_manager(setting)
        g = store.load(target, "f")
        assert len(g) == len(f)
        assert g.sat_count() == f.sat_count()
        assert truth_table(g, NAMES) == truth_table(f, NAMES)
        assert store_digest(g) == store_digest(f)

    def test_constants_round_trip(self, setting, tmp_path):
        manager = settings_manager(setting)
        store = BDDStore(tmp_path / "store")
        store.save("t", manager.true)
        store.save("f", manager.false)
        target = settings_manager(setting)
        assert store.load(target, "t").is_true
        assert store.load(target, "f").is_false

    def test_multi_root_object_with_extra(self, setting, tmp_path):
        manager, f = build_function(setting)
        g = f | manager.var("x0")
        store = BDDStore(tmp_path / "store")
        store.save_roots("pair", manager, {"f": f, "g": g},
                         extra={"note": "checkpoint-ish", "n": 3})
        target = settings_manager(setting)
        roots, extra = store.load_roots(target, "pair")
        assert set(roots) == {"f", "g"}
        assert extra == {"note": "checkpoint-ish", "n": 3}
        assert roots["f"].sat_count() == f.sat_count()
        assert roots["g"].sat_count() == g.sat_count()

    def test_load_into_reversed_order_uses_ite(self, setting, tmp_path):
        manager, f = build_function(setting)
        store = BDDStore(tmp_path / "store")
        store.save("f", f)
        target = settings_manager(setting, NAMES[::-1])
        g = store.load(target, "f")
        assert truth_table(g, NAMES) == truth_table(f, NAMES)

    def test_declare_false_rejects_unknown_vars(self, setting,
                                                tmp_path):
        manager, f = build_function(setting)
        store = BDDStore(tmp_path / "store")
        store.save("f", f)
        with pytest.raises(StoreError, match="unknown variable"):
            store.load(settings_manager(setting), "f", declare=False)


class TestContentAddressing:
    def test_cross_backend_identical_bytes(self):
        # One manager builds f in fresh slots, the other after a
        # collection, in slots the sweep recycled: the level-ordered
        # canonical encoding must not leak node ids or insertion
        # history, so identical functions address to identical objects.
        manager, f = build_function("array")
        recycled, garbage = build_function("object", seed=8, terms=20)
        del garbage
        assert recycled.collect_garbage() > 0
        g = transfer(f, recycled)
        blob = encode_roots(manager, {"f": f})
        blob_recycled = encode_roots(recycled, {"f": g})
        assert blob == blob_recycled
        assert content_address(blob) == content_address(blob_recycled)

    def test_idempotent_saves_share_one_object(self, tmp_path):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        d1 = store.save("a", f)
        d2 = store.save("b", f)
        assert d1 == d2
        objects = [p for p in store.objects.rglob("*") if p.is_file()]
        assert len(objects) == 1
        # Two names, one object; deleting one name keeps the other
        # loadable (objects are shared, never reclaimed by delete).
        assert store.delete("a")
        g = store.load(Manager(), "b")
        assert g.sat_count() == f.sat_count()

    def test_encode_decode_without_a_store(self):
        manager, f = build_function("array")
        blob = encode_roots(manager, {"f": f})
        roots = decode_roots(Manager(), blob)
        assert roots["f"].sat_count() == f.sat_count()


class TestTransfer:
    def test_transfer_preserves_semantics(self, random_functions):
        m, funcs = random_functions
        target = Manager()
        for f in funcs[:4]:
            g = transfer(f, target)
            assert g.manager is target
            assert g.sat_count(m.num_vars) == f.sat_count()

    def test_transfer_same_manager_is_identity(self, random_functions):
        m, funcs = random_functions
        assert transfer(funcs[0], m) == funcs[0]

    def test_transfer_into_reversed_order(self, random_functions):
        m, funcs = random_functions
        target = Manager(vars=[f"x{i}" for i in range(12)][::-1])
        for f in funcs[:4]:
            g = transfer(f, target)
            assert g.sat_count() == f.sat_count()
            assert g.support() == f.support()

    def test_transfer_shares_subgraphs(self, random_functions):
        m, funcs = random_functions
        target = Manager()
        a = transfer(funcs[0], target)
        b = transfer(funcs[0], target)
        assert a == b

    def test_missing_variables_keep_the_source_order(self):
        # x0 ? x2 : x1 reaches x2 before x1 on a depth-first walk; the
        # copy still declares them in the source's order, so it keeps
        # the source's shape.
        source = Manager(vars=["x0", "x1", "x2"])
        x0, x1, x2 = (source.var(name) for name in source.var_names)
        f = x0.ite(x2, x1)
        target = Manager()
        g = transfer(f, target)
        assert target.var_names == ["x0", "x1", "x2"]
        assert len(g) == len(f)
        assert store_digest(g) == store_digest(f)


class TestIndex:
    def test_entries_tags_and_prefix(self, tmp_path):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        digest = store.save("circ/output/o1", f, tags=("run1", "outputs"))
        store.save("circ/next/n1", f)
        store.save("other", f)
        assert len(store) == 3
        assert "circ/output/o1" in store
        assert "nope" not in store
        names = [e["name"] for e in store.entries(prefix="circ/")]
        assert names == ["circ/next/n1", "circ/output/o1"]
        entry = store.entries(prefix="circ/output/")[0]
        assert entry["tags"] == ["run1", "outputs"]
        assert entry["hash"] == digest
        assert entry["nodes"] == len(f)
        assert sorted(store) == sorted(e["name"]
                                       for e in store.entries())

    @pytest.mark.parametrize("tag", ["x,y", ""])
    def test_unstorable_tag_is_refused(self, tmp_path, tag):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        with pytest.raises(StoreError, match="tag"):
            store.save("f", f, tags=["ok", tag])
        assert len(store) == 0

    def test_unknown_name_is_structured(self, tmp_path):
        store = BDDStore(tmp_path / "store")
        with pytest.raises(StoreError, match="unknown function"):
            store.load(Manager(), "ghost")

    def test_rootless_object_refuses_single_load(self, tmp_path):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        store.save_roots("ck", manager, {"reached": f})
        with pytest.raises(StoreError, match="multi-root"):
            store.load(Manager(), "ck")

    def test_empty_name_rejected(self, tmp_path):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.save("", f)

    def test_root_must_be_a_root(self, tmp_path):
        manager, f = build_function("array")
        store = BDDStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.save_roots("x", manager, {"f": f}, root="g")

    def test_repoint_replaces_entry(self, tmp_path):
        manager, f = build_function("array")
        g = f & manager.var("x1")
        store = BDDStore(tmp_path / "store")
        store.save("f", f)
        store.save("f", g)
        assert len(store) == 1
        loaded = store.load(Manager(), "f")
        assert loaded.sat_count() == g.sat_count()

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(StoreError, match="no store"):
            BDDStore(tmp_path / "absent", create=False)

    def test_newer_schema_is_refused(self, tmp_path):
        import sqlite3

        store = BDDStore(tmp_path / "store")
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE meta SET value = '999' "
                         "WHERE key = 'schema_version'")
        with pytest.raises(StoreError, match="schema"):
            BDDStore(tmp_path / "store")
