"""ITE, apply, compose, cofactor — semantics against brute force."""

from __future__ import annotations

import pytest

from repro.bdd.operations import apply_node, leq_node

from ..helpers import assert_equal_semantics, fresh_manager, truth_table


class TestApply:
    @pytest.mark.parametrize("op,oracle", [
        ("and", lambda a, b: a and b),
        ("or", lambda a, b: a or b),
        ("xor", lambda a, b: a != b),
        ("xnor", lambda a, b: a == b),
        ("nand", lambda a, b: not (a and b)),
        ("nor", lambda a, b: not (a or b)),
        ("imp", lambda a, b: (not a) or b),
        ("diff", lambda a, b: a and not b),
    ])
    def test_operator_semantics(self, op, oracle):
        m, vs = fresh_manager(4)
        f = vs[0] & vs[2]
        g = vs[1] | ~vs[3]
        result = m.apply(op, f, g)
        names = [f"x{i}" for i in range(4)]
        assert_equal_semantics(
            result,
            lambda **a: oracle(a["x0"] and a["x2"],
                               a["x1"] or not a["x3"]),
            names)

    def test_unknown_operator(self):
        m, vs = fresh_manager(2)
        with pytest.raises(ValueError):
            apply_node(m, "nope", vs[0].node, vs[1].node)

    def test_terminal_cases(self):
        m, vs = fresh_manager(1)
        a = vs[0]
        assert (a & m.false).is_false
        assert (a & m.true) == a
        assert (a | m.true).is_true
        assert (a | m.false) == a
        assert (a ^ a).is_false
        assert (a ^ m.false) == a

    def test_commutative_cache_symmetry(self):
        m, vs = fresh_manager(3)
        f = vs[0] | vs[1]
        g = vs[1] & vs[2]
        assert (f & g) == (g & f)
        assert (f ^ g) == (g ^ f)


class TestIte:
    def test_basic(self):
        m, vs = fresh_manager(3)
        f = m.ite(vs[0], vs[1], vs[2])
        names = ["x0", "x1", "x2"]
        assert_equal_semantics(
            f, lambda **a: a["x1"] if a["x0"] else a["x2"], names)

    def test_terminal_shortcuts(self):
        m, vs = fresh_manager(2)
        a, b = vs
        assert m.ite(m.true, a, b) == a
        assert m.ite(m.false, a, b) == b
        assert m.ite(a, b, b) == b
        assert m.ite(a, m.true, m.false) == a
        assert m.ite(a, m.false, m.true) == ~a

    def test_ite_equals_boolean_formula(self):
        m, vs = fresh_manager(4)
        f = vs[0] ^ vs[3]
        g = vs[1] & vs[2]
        h = vs[2] | vs[0]
        assert m.ite(f, g, h) == ((f & g) | (~f & h))

    def test_fgh_collapsing(self):
        m, vs = fresh_manager(2)
        a, b = vs
        assert m.ite(a, a, b) == (a | b)
        assert m.ite(a, b, a) == (a & b)


class TestNot:
    def test_involution(self):
        m, vs = fresh_manager(5)
        f = (vs[0] & vs[1]) | (vs[2] ^ vs[4])
        assert ~~f == f

    def test_de_morgan(self):
        m, vs = fresh_manager(4)
        f = vs[0] | vs[1]
        g = vs[2] & vs[3]
        assert ~(f & g) == (~f | ~g)
        assert ~(f | g) == (~f & ~g)


class TestLeq:
    def test_reflexive_and_constants(self):
        m, vs = fresh_manager(3)
        f = vs[0] & vs[1]
        assert leq_node(m, f.node, f.node)
        assert leq_node(m, m.zero_node, f.node)
        assert leq_node(m, f.node, m.one_node)
        assert not leq_node(m, m.one_node, f.node)

    def test_strict_containment(self):
        m, vs = fresh_manager(3)
        small = vs[0] & vs[1]
        big = vs[0]
        assert small <= big
        assert not big <= small
        assert small < big
        assert big > small

    def test_incomparable(self):
        m, vs = fresh_manager(2)
        assert not vs[0] <= vs[1]
        assert not vs[1] <= vs[0]

    def test_shared_cache(self):
        # Every query memoizes in the computed table and is tallied, so
        # a repeated one is a counted hit.
        m, vs = fresh_manager(4)
        f = vs[0] & vs[1]
        g = vs[0]
        assert leq_node(m, f.node, g.node)
        first = m.stats.cache_per_op["leq"]
        assert first.misses == 1
        assert leq_node(m, f.node, g.node)
        second = m.stats.cache_per_op["leq"]
        assert (second.hits, second.misses) == (first.hits + 1, 1)


class TestCofactor:
    def test_shannon_expansion(self, random_functions):
        m, funcs = random_functions
        x0 = m.var("x0")
        for f in funcs:
            hi = f.cofactor({"x0": True})
            lo = f.cofactor({"x0": False})
            assert f == m.ite(x0, hi, lo)

    def test_multi_variable(self):
        m, vs = fresh_manager(4)
        f = (vs[0] & vs[1]) | (vs[2] & vs[3])
        g = f.cofactor({"x0": True, "x2": False})
        assert g == vs[1]

    def test_top_cofactors_match_structure(self):
        m, vs = fresh_manager(3)
        f = m.ite(vs[0], vs[1], vs[2])
        assert f.hi == vs[1]
        assert f.lo == vs[2]


class TestCompose:
    def test_substitute_matches_semantics(self):
        m, vs = fresh_manager(5)
        f = (vs[0] & vs[1]) ^ vs[2]
        g = vs[3] | vs[4]
        composed = f.compose({"x1": g})
        names = [f"x{i}" for i in range(5)]
        assert_equal_semantics(
            composed,
            lambda **a: (a["x0"] and (a["x3"] or a["x4"])) != a["x2"],
            names)

    def test_substitute_overlapping_support(self):
        # Replacement mentions variables above the replaced one.
        m, vs = fresh_manager(3)
        f = vs[1] & vs[2]
        composed = f.compose({"x1": vs[0]})
        assert composed == (vs[0] & vs[2])

    def test_simultaneous_swap(self):
        m, vs = fresh_manager(2)
        f = vs[0] & ~vs[1]
        swapped = f.compose({"x0": vs[1], "x1": vs[0]})
        assert swapped == (vs[1] & ~vs[0])

    def test_rename(self):
        m, vs = fresh_manager(4)
        f = vs[0] | vs[1]
        renamed = f.rename({"x0": "x2", "x1": "x3"})
        assert renamed == (vs[2] | vs[3])

    @pytest.mark.parametrize("replacement", [
        lambda x: x[1], lambda x: ~x[1], lambda x: x[1] ^ x[2],
        lambda x: x[1] & x[2], lambda x: x[2] | x[4]],
        ids=["x1", "~x1", "x1^x2", "x1&x2", "x2|x4"])
    def test_replacement_above_children(self, replacement):
        # The replacement's top variable lies above both rebuilt
        # children: only a positive literal may relabel the node; a
        # negative literal or any other function needs the ITE rebuild.
        m, vs = fresh_manager(5)
        g = replacement(vs)
        f = m.ite(vs[0], vs[3], ~vs[4])
        composed = f.compose({"x0": g})
        names = [f"x{i}" for i in range(5)]
        assert_equal_semantics(
            composed,
            lambda **a: a["x3"] if g(**a) else not a["x4"], names)

    def test_kept_variable_above_substituted_support(self):
        # x0 is not substituted, but x2's replacement brings x0 and x1
        # up to its level: the kept x0 node needs the ITE rebuild.
        m, vs = fresh_manager(4)
        f = (vs[0] & vs[2]) | (~vs[0] & vs[3])
        composed = f.compose({"x2": vs[0] ^ vs[1]})
        assert_equal_semantics(
            composed,
            lambda **a: (a["x0"] and not a["x1"]) or (not a["x0"]
                                                       and a["x3"]),
            [f"x{i}" for i in range(4)])

    def test_empty_substitution(self):
        m, vs = fresh_manager(2)
        f = vs[0] ^ vs[1]
        assert f.compose({}) == f


class TestEvaluation:
    def test_call(self):
        m, vs = fresh_manager(3)
        f = (vs[0] & vs[1]) | vs[2]
        assert f(x0=True, x1=True, x2=False)
        assert not f(x0=True, x1=False, x2=False)

    def test_missing_variable_raises(self):
        m, vs = fresh_manager(2)
        f = vs[0] & vs[1]
        with pytest.raises(ValueError):
            f(x0=True)

    def test_truth_table_helper(self):
        m, vs = fresh_manager(2)
        f = vs[0] ^ vs[1]
        assert truth_table(f, ["x0", "x1"]) == [False, True, True, False]
