"""Dynamic reordering: swaps preserve semantics, sifting shrinks."""

from __future__ import annotations


import pytest

from repro.bdd import Manager
from repro.bdd.reorder import set_order, sift, swap_adjacent

from ..helpers import fresh_manager, random_function, truth_table


def _tables(funcs, names):
    return [truth_table(f, names) for f in funcs]


class TestSwapAdjacent:
    def test_swap_exchanges_variables(self):
        m, vs = fresh_manager(2)
        f = vs[0] & ~vs[1]
        m.collect_garbage()
        swap_adjacent(m, 0)
        assert m.var_names == ["x1", "x0"]
        assert f(x0=True, x1=False)
        m.debug_check()

    def test_swap_preserves_semantics_randomized(self, rng):
        m, vs = fresh_manager(7)
        funcs = [random_function(m, vs, rng, terms=5) for _ in range(4)]
        names = [f"x{i}" for i in range(7)]
        before = _tables(funcs, names)
        m.collect_garbage()
        for _ in range(60):
            swap_adjacent(m, rng.randrange(6))
            m.debug_check()
        assert _tables(funcs, names) == before

    def test_swap_flushes_the_computed_table(self, rng):
        # A swap reclaims the nodes it orphans and the store recycles
        # their ids, so a computed-table entry kept across the swap
        # could name a dead or reused node (``cache-dangling``).
        names = [f"x{i}" for i in range(6)]
        for _ in range(20):
            m, vs = fresh_manager(6)
            f = random_function(m, vs, rng)
            g = random_function(m, vs, rng)
            m.collect_garbage()
            h = f & g
            assert len(m.computed)
            before = _tables([h], names)
            for level in range(5):
                swap_adjacent(m, level)
                m.debug_check()
            assert _tables([h], names) == before

    def test_swap_is_involution(self, rng):
        m, vs = fresh_manager(5)
        f = random_function(m, vs, rng)
        m.collect_garbage()
        order = m.var_names
        size = len(m)
        swap_adjacent(m, 2)
        swap_adjacent(m, 2)
        assert m.var_names == order
        assert len(m) == size
        assert f is not None


class TestSift:
    def test_sift_reduces_separated_adder(self):
        # Non-interleaved adder carry: sifting should find a much
        # smaller (interleaved-ish) order.
        m = Manager()
        n = 8
        a = [m.add_var(f"a{i}") for i in range(n)]
        b = [m.add_var(f"b{i}") for i in range(n)]
        carry = m.false
        for x, y in zip(a, b):
            carry = (x & y) | (carry & (x ^ y))
        before = len(carry)
        sift(m)
        after = len(carry)
        assert after < before
        m.debug_check()

    def test_sift_preserves_functions(self, rng):
        m, vs = fresh_manager(9)
        funcs = [random_function(m, vs, rng, terms=6) for _ in range(5)]
        counts = [f.sat_count() for f in funcs]
        sift(m)
        m.debug_check()
        assert counts == [f.sat_count() for f in funcs]

    def test_sift_trivial_managers(self):
        m = Manager()
        assert sift(m) == 0
        m.add_var("a")
        sift(m)
        m.debug_check()

    def test_reorder_count_increments(self, rng):
        m, vs = fresh_manager(4)
        _ = random_function(m, vs, rng)
        n = m.reorder_count
        m.reorder()
        assert m.reorder_count == n + 1


class TestSetOrder:
    def test_exact_permutation(self, rng):
        m, vs = fresh_manager(6)
        f = random_function(m, vs, rng)
        names = [f"x{i}" for i in range(6)]
        before = truth_table(f, names)
        target = ["x3", "x0", "x5", "x1", "x4", "x2"]
        set_order(m, target)
        assert m.var_names == target
        assert truth_table(f, names) == before
        m.debug_check()

    def test_reverse_order(self, rng):
        m, vs = fresh_manager(5)
        f = random_function(m, vs, rng)
        count = f.sat_count()
        set_order(m, m.var_names[::-1])
        assert f.sat_count() == count

    def test_invalid_permutation_rejected(self):
        m, vs = fresh_manager(3)
        with pytest.raises(ValueError):
            set_order(m, ["x0", "x1"])
        with pytest.raises(ValueError):
            set_order(m, ["x0", "x1", "x1"])

    def test_quantify_after_reorder(self, rng):
        m, vs = fresh_manager(6)
        f = random_function(m, vs, rng)
        e_before = f.exists(["x2"]).sat_count()
        set_order(m, m.var_names[::-1])
        assert f.exists(["x2"]).sat_count() == e_before
