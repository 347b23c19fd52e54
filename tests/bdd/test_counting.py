"""Minterm counting, density, path profiles."""

from __future__ import annotations

import math
import random

import pytest

from repro.bdd import Manager, density, log2int, shared_size
from repro.bdd.counting import (distance_from_root, distance_to_one,
                                height_map, minterm_count_map, path_count)

from ..helpers import SETTINGS, fresh_manager, settings_manager, truth_table


class TestSatCount:
    def test_constants(self):
        m = Manager(vars=["a", "b"])
        assert m.true.sat_count() == 4
        assert m.false.sat_count() == 0

    def test_single_variable(self):
        m, vs = fresh_manager(5)
        assert vs[0].sat_count() == 16

    def test_matches_truth_table(self, random_functions):
        m, funcs = random_functions
        names = [f"x{i}" for i in range(12)]
        for f in funcs[:4]:
            expected = sum(truth_table(f, names))
            assert f.sat_count() == expected

    def test_complement_counts(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            assert f.sat_count() + (~f).sat_count() == 2 ** 12

    def test_custom_nvars(self):
        m, vs = fresh_manager(3)
        f = vs[0]
        assert f.sat_count(5) == 16
        with pytest.raises(ValueError):
            f.sat_count(0)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_negative_nvars_rejected_on_every_root(self, setting):
        m = settings_manager(setting, ["a", "b"])
        for f in (m.true, m.false, m.var("a") & m.var("b")):
            with pytest.raises(ValueError, match="non-negative"):
                f.sat_count(-1)
            with pytest.raises(ValueError, match="non-negative"):
                f.density(-1)
        assert m.true.sat_count(0) == 1
        assert m.false.sat_count(0) == 0

    def test_huge_counts_are_exact(self):
        m, vs = fresh_manager(200)
        f = vs[0] | vs[199]
        expected = 2 ** 200 - 2 ** 198
        assert f.sat_count() == expected


def _random_dnf(rng, nvars=8, terms=6, width=3):
    """A reproducible random DNF as (name, polarity) term lists."""
    names = [f"x{i}" for i in range(nvars)]
    return names, [[(name, rng.random() < 0.5)
                    for name in rng.sample(names, width)]
                   for _ in range(terms)]


def _build(manager, terms):
    f = manager.false
    for term in terms:
        cube = manager.true
        for name, polarity in term:
            var = manager.var(name)
            cube &= var if polarity else ~var
        f |= cube
    return f


class TestVectorizedSatCount:
    """The edge cases of the former column-sweep counter, held against
    sat_count, which is now the only counting path."""

    def test_wide_counts_take_python_branch(self):
        # nvars > 61 overflows int64; the count is still the exact big
        # integer.
        names, terms = _random_dnf(random.Random(7))
        arr = Manager(vars=names, backend="array")
        f = _build(arr, terms)
        narrow = f.sat_count()
        assert f.sat_count(100) == narrow << 92

    def test_vector_refuses_unvalidatable_support(self):
        # Counting over fewer variables than the store declares, down
        # to the support, is exact.
        arr = Manager(vars=[f"x{i}" for i in range(8)], backend="array")
        f = arr.var("x0")
        assert f.sat_count(3) == 4
        assert f.sat_count(1) == 1
        assert f.sat_count() == 128

    def test_vector_terminals(self):
        arr = Manager(vars=["a", "b"], backend="array")
        assert arr.true.sat_count(2) == 4
        assert arr.false.sat_count(2) == 0
        assert arr.true.sat_count(100) == 2 ** 100
        assert arr.false.sat_count(100) == 0


class TestMintermCountMap:
    def test_internal_counts(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1] & vs[2]
        counts = minterm_count_map(m.store, f.node, 3)
        # Bottom node (x2, over 1 var): 1 minterm; middle: 1; top: 1.
        assert counts[f.node] == 1

    def test_root_count_scales(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            counts = minterm_count_map(m.store, f.node, 12)
            assert counts[f.node] << m.store.level_of(f.node) \
                == f.sat_count()


class TestDensity:
    def test_definition(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            expected = f.sat_count() / len(f)
            assert math.isclose(density(f), expected, rel_tol=1e-9)

    def test_false_density_zero(self):
        m = Manager(vars=["a"])
        assert density(m.false) == 0.0

    def test_true_density(self):
        m = Manager(vars=["a", "b"])
        assert density(m.true) == 4.0

    def test_no_overflow_on_many_vars(self):
        m, vs = fresh_manager(400)
        f = vs[0]
        d = density(f)
        assert d == pytest.approx(2.0 ** 399)

    def test_density_past_float_range_is_inf(self):
        # One literal over 1,026 variables: 2**1025 minterms per node.
        m, vs = fresh_manager(1026)
        assert density(vs[0]) == math.inf
        # Just inside the range: 2**1023, by fewer variables or more
        # nodes.
        assert vs[0].density(1024) == pytest.approx(2.0 ** 1023)
        assert density(vs[0] & vs[1]) == pytest.approx(2.0 ** 1023)


class TestLog2Int:
    def test_small(self):
        assert log2int(8) == 3.0

    def test_large(self):
        n = 3 ** 500
        assert log2int(n) == pytest.approx(500 * math.log2(3), rel=1e-12)

    def test_non_positive(self):
        with pytest.raises(ValueError):
            log2int(0)


class TestSharedSize:
    def test_disjoint_functions_add(self):
        m, vs = fresh_manager(4)
        f = vs[0] & vs[1]
        g = vs[2] & vs[3]
        assert shared_size(m.store, [f.node, g.node]) == len(f) + len(g)

    def test_identical_functions_counted_once(self):
        m, vs = fresh_manager(3)
        f = vs[0] | vs[2]
        assert shared_size(m.store, [f.node, f.node]) == len(f)


class TestPathProfiles:
    def test_distance_from_root(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1] & vs[2]
        dist = distance_from_root(m.store, f.node)
        assert dist[f.node] == 0
        assert dist[m.one_node] == 3
        assert dist[m.zero_node] == 1  # first else-arc

    def test_distance_to_one(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1] & vs[2]
        dist = distance_to_one(m.store, f.node)
        assert dist[f.node] == 3

    def test_every_internal_node_reaches_one(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            dist = distance_to_one(m.store, f.node)
            internal = {n: d for n, d in dist.items()
                        if not m.store.is_terminal(n)}
            assert all(d != math.inf for d in internal.values())

    def test_height_map(self):
        m, vs = fresh_manager(4)
        f = vs[0] & vs[1] & vs[2] & vs[3]
        heights = height_map(m.store, f.node)
        assert heights[f.node] == 4

    def test_path_count_cube(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1] & vs[2]
        # One path to ONE, three paths to ZERO.
        assert path_count(m.store, f.node) == 4

    def test_path_count_terminal(self):
        m = Manager()
        assert path_count(m.store, m.true.node) == 1
