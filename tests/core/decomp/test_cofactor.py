"""Cofactor-based decomposition (Equation 1)."""

from __future__ import annotations

import random

import pytest

from repro.bdd import Manager
from repro.core.decomp import (best_split_variable, cofactor_decompose,
                               cofactor_decompose_k, cofactor_sizes)

from ...helpers import (SETTINGS, fresh_manager, random_function,
                        settings_manager)


def _random_batch(setting: str, seed: int, count: int = 24):
    """Random DNFs of varied width, density and variable count."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 12)
        m = settings_manager(setting, [f"x{i}" for i in range(nvars)])
        variables = [m.var(f"x{i}") for i in range(nvars)]
        yield random_function(m, variables, rng, terms=rng.randint(1, 14),
                              width=rng.randint(1, 5))


class TestCofactorSizes:
    def test_sizes_match_direct_cofactors(self, random_functions):
        m, funcs = random_functions
        batches = [funcs] + [list(_random_batch(setting, seed=31))
                             for setting in SETTINGS]
        for f in (f for batch in batches for f in batch):
            sizes = cofactor_sizes(f)
            for name, (hi_size, lo_size) in sizes.items():
                assert hi_size == len(f.cofactor({name: True}))
                assert lo_size == len(f.cofactor({name: False}))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_builds_no_node_and_no_cache_entry(self, setting):
        for f in _random_batch(setting, seed=47, count=8):
            m = f.manager
            # Deferred, so a collection armed by the setting cannot run
            # at the call's safe point and change the counts.
            with m.defer_gc():
                before = (m.store.num_nodes, m.stats.peak_nodes,
                          len(m.computed))
                cofactor_sizes(f)
                assert (m.store.num_nodes, m.stats.peak_nodes,
                        len(m.computed)) == before

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_rebuilt_node_merges_with_existing_node(self, setting):
        # Under x = 1 the branch b&x&y rebuilds as (b, y, 0), which is
        # the node b&y already in f: one node, not two.
        m = settings_manager(setting, ["a", "c", "b", "x", "y", "z"])
        a, c, b, x, y, z = (m.var(name) for name in "acbxyz")
        f = a.ite(b & x & y, c.ite(b & y, z))
        assert cofactor_sizes(f)["x"][0] == 5
        assert len(f.cofactor({"x": True})) == 5

    def test_constants_and_projections(self):
        m = Manager(vars=["a", "b"])
        assert cofactor_sizes(m.true) == {}
        assert cofactor_sizes(m.false) == {}
        assert cofactor_sizes(m.var("b")) == {"b": (0, 0)}
        assert cofactor_sizes(m.var("a") & m.var("b")) == {"a": (1, 0),
                                                          "b": (1, 0)}

    def test_only_support_variables(self, random_functions):
        m, funcs = random_functions
        for f in funcs[:4]:
            assert set(cofactor_sizes(f)) == f.support()


class TestBestSplit:
    def test_minimizes_larger_cofactor(self, random_functions):
        m, funcs = random_functions
        for f in funcs[:4]:
            best = best_split_variable(f)
            sizes = cofactor_sizes(f)
            best_value = max(sizes[best])
            assert all(max(pair) >= best_value
                       for pair in sizes.values())

    def test_constant_rejected(self):
        m = Manager(vars=["a"])
        with pytest.raises(ValueError):
            best_split_variable(m.true)


class TestEquationOne:
    def test_conjunctive_identity(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            g, h = cofactor_decompose(f)
            assert (g & h) == f

    def test_disjunctive_identity(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            g, h = cofactor_decompose(f, conjunctive=False)
            assert (g | h) == f

    def test_explicit_variable(self):
        m, vs = fresh_manager(4)
        f = (vs[0] & vs[1]) | (vs[2] & vs[3])
        g, h = cofactor_decompose(f, variable="x2")
        assert (g & h) == f
        # Equation 1 exactly: g = x2 + f_{x2'}, h = x2' + f_{x2}.
        x2 = vs[2]
        assert g == (x2 | f.cofactor({"x2": False}))
        assert h == (~x2 | f.cofactor({"x2": True}))

    def test_factors_smaller_than_f_typically(self, random_functions):
        m, funcs = random_functions
        smaller = 0
        for f in funcs:
            g, h = cofactor_decompose(f)
            if max(len(g), len(h)) < len(f):
                smaller += 1
        assert smaller >= len(funcs) // 2

    def test_constant_input(self):
        m = Manager(vars=["a"])
        g, h = cofactor_decompose(m.true)
        assert (g & h).is_true
        g, h = cofactor_decompose(m.false, conjunctive=False)
        assert (g | h).is_false


class TestKWay:
    def test_partition_covers(self, random_functions):
        m, funcs = random_functions
        for f in funcs[:4]:
            parts = cofactor_decompose_k(f, 2)
            union = m.false
            for part in parts:
                union = union | part
            assert union == f
            assert len(parts) <= 4

    def test_conjunctive_k_way(self, random_functions):
        m, funcs = random_functions
        f = funcs[0]
        parts = cofactor_decompose_k(f, 2, conjunctive=True)
        product = m.true
        for part in parts:
            product = product & part
        assert product == f

    def test_k_zero(self, random_functions):
        m, funcs = random_functions
        assert cofactor_decompose_k(funcs[0], 0) == [funcs[0]]

    def test_negative_k(self, random_functions):
        m, funcs = random_functions
        with pytest.raises(ValueError):
            cofactor_decompose_k(funcs[0], -1)
