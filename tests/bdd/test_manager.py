"""Manager: variables, node construction, canonicity, GC."""

from __future__ import annotations

import pytest

from repro.bdd import Manager, TERMINAL_LEVEL

from ..helpers import fresh_manager, random_function


class TestVariables:
    def test_add_var_returns_projection(self):
        m = Manager()
        a = m.add_var("a")
        assert a.var == "a"
        assert a.hi.is_true and a.lo.is_false

    def test_add_vars_order(self):
        m = Manager()
        m.add_vars("a", "b", "c")
        assert m.var_names == ["a", "b", "c"]
        assert m.level_of_var("b") == 1
        assert m.var_at_level(2) == "c"

    def test_duplicate_variable_rejected(self):
        m = Manager()
        m.add_var("a")
        with pytest.raises(ValueError):
            m.add_var("a")

    def test_var_lookup(self):
        m = Manager(vars=["p", "q"])
        assert m.var("p") == m.var("p")
        assert m.var("p") != m.var("q")

    def test_unknown_variable(self):
        m = Manager()
        with pytest.raises(KeyError):
            m.var("nope")

    def test_insert_above_nodes_rejected(self):
        m = Manager()
        m.add_var("a")
        with pytest.raises(ValueError):
            m.add_var("b", level=0)


class TestTerminals:
    def test_constants(self):
        m = Manager()
        assert m.true.is_true
        assert m.false.is_false
        assert m.true != m.false
        assert m.store.level_of(m.true.node) == TERMINAL_LEVEL

    def test_constants_are_canonical(self):
        m = Manager()
        assert m.true is not m.false
        assert (m.true & m.true) == m.true


class TestMk:
    def test_reduction_rule(self):
        m = Manager()
        m.add_var("a")
        node = m.mk(0, m.one_node, m.one_node)
        assert node is m.one_node

    def test_hash_consing(self):
        m = Manager()
        m.add_var("a")
        n1 = m.mk(0, m.one_node, m.zero_node)
        n2 = m.mk(0, m.one_node, m.zero_node)
        assert n1 is n2

    def test_order_violation_rejected(self):
        m = Manager()
        m.add_vars("a", "b")
        inner = m.mk(0, m.one_node, m.zero_node)
        with pytest.raises(ValueError):
            m.mk(1, inner, m.zero_node)

    def test_canonicity_of_equal_functions(self):
        m, vs = fresh_manager(4)
        f1 = (vs[0] & vs[1]) | vs[2]
        f2 = ~(~(vs[0] & vs[1]) & ~vs[2])
        assert f1.node is f2.node


class TestCube:
    def test_cube_semantics(self):
        m, vs = fresh_manager(3)
        cube = m.cube({"x0": True, "x2": False})
        assert cube == (vs[0] & ~vs[2])

    def test_empty_cube_is_true(self):
        m = Manager()
        assert m.cube({}).is_true


class TestGarbageCollection:
    def test_collect_reclaims_dead_nodes(self, rng):
        m, vs = fresh_manager(10)
        keep = random_function(m, vs, rng)
        for _ in range(5):
            random_function(m, vs, rng)  # dropped immediately
        import gc
        gc.collect()
        before = len(m)
        reclaimed = m.collect_garbage()
        assert reclaimed >= 0
        assert len(m) == before - reclaimed
        m.debug_check()
        # The kept function still works.
        assert keep.sat_count() == keep.sat_count()

    def test_live_functions_survive(self, rng):
        m, vs = fresh_manager(10)
        fs = [random_function(m, vs, rng, terms=4) for _ in range(4)]
        counts = [f.sat_count() for f in fs]
        import gc
        gc.collect()
        m.collect_garbage()
        assert counts == [f.sat_count() for f in fs]

    def test_gc_count_increments(self):
        m = Manager()
        n = m.gc_count
        m.collect_garbage()
        assert m.gc_count == n + 1


class TestInvariants:
    def test_check_invariants_on_fresh_manager(self):
        m, vs = fresh_manager(6)
        f = (vs[0] | vs[3]) & ~vs[5]
        assert f is not None
        m.debug_check()

    def test_len_counts_nodes(self):
        m = Manager()
        assert len(m) == 0
        m.add_var("a")
        assert len(m) == 1

    def test_level_sizes(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1] & vs[2]
        assert f is not None
        sizes = m.level_sizes()
        assert len(sizes) == 3
        assert all(s >= 1 for s in sizes)
