"""Function handles: identity, predicates, structure, iteration."""

from __future__ import annotations

import pytest

from repro.bdd import Manager

from ..helpers import fresh_manager, random_function


class TestIdentity:
    def test_equality_is_canonical(self):
        m, vs = fresh_manager(3)
        assert (vs[0] | vs[1]) == (vs[1] | vs[0])

    def test_cross_manager_rejected(self):
        m1, vs1 = fresh_manager(2)
        m2, vs2 = fresh_manager(2)
        with pytest.raises(ValueError):
            vs1[0] & vs2[0]

    @pytest.mark.parametrize("operation", [
        lambda m, a, c: m.apply("and", a, c),
        lambda m, a, c: m.ite(a, c, c),
        lambda m, a, c: m.ite(c, a, c),
        lambda m, a, c: m.ite(c, c, a),
        lambda m, a, c: c.compose({"x0": a}),
    ], ids=["apply", "ite-if", "ite-then", "ite-else", "compose"])
    def test_foreign_operand_rejected(self, operation):
        m1, vs1 = fresh_manager(2)
        m2, vs2 = fresh_manager(2)
        with pytest.raises(ValueError, match="different managers"):
            operation(m2, vs1[0], vs2[1])

    def test_bool_coercion(self):
        m, vs = fresh_manager(1)
        assert (vs[0] & True) == vs[0]
        assert (vs[0] & False).is_false
        assert (vs[0] | True).is_true
        assert (vs[0] ^ True) == ~vs[0]

    def test_type_error(self):
        m, vs = fresh_manager(1)
        with pytest.raises(TypeError):
            vs[0] & 3

    def test_hashable(self):
        m, vs = fresh_manager(2)
        s = {vs[0] & vs[1], vs[1] & vs[0]}
        assert len(s) == 1


class TestPredicates:
    def test_constants(self):
        m = Manager()
        assert m.true.is_constant and m.false.is_constant
        assert not m.true.is_false and not m.false.is_true

    def test_var_property(self):
        m, vs = fresh_manager(2)
        assert (vs[1] & vs[0]).var == "x0"
        with pytest.raises(ValueError):
            m.true.var

    def test_level(self):
        m, vs = fresh_manager(3)
        assert vs[2].level == 2
        assert (vs[1] | vs[2]).level == 1


class TestSetAlgebra:
    def test_difference(self):
        m, vs = fresh_manager(3)
        f = vs[0] | vs[1]
        g = vs[1]
        assert (f - g) == (vs[0] & ~vs[1])

    def test_implies_equiv(self):
        m, vs = fresh_manager(2)
        a, b = vs
        assert a.implies(b) == (~a | b)
        assert a.equiv(b) == ~(a ^ b)

    def test_containment_chain(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            for g in funcs:
                inter = f & g
                union = f | g
                assert inter <= f <= union
                assert inter <= g <= union


class TestSupport:
    def test_support_exact(self):
        m, vs = fresh_manager(5)
        f = vs[1] & (vs[3] | vs[4])
        assert f.support() == {"x1", "x3", "x4"}

    def test_constant_support_empty(self):
        m = Manager()
        assert m.true.support() == set()

    def test_xor_masked_variable(self):
        m, vs = fresh_manager(2)
        f = (vs[0] & vs[1]) ^ (vs[0] & vs[1])
        assert f.support() == set()


class TestSize:
    def test_len_counts_internal_nodes(self):
        m, vs = fresh_manager(3)
        assert len(m.true) == 0
        assert len(vs[0]) == 1
        chain = vs[0] & vs[1] & vs[2]
        assert len(chain) == 3

    def test_xor_chain_size(self):
        m, vs = fresh_manager(6)
        f = vs[0]
        for v in vs[1:]:
            f = f ^ v
        # XOR chain in order: 2 nodes per level except the last.
        assert len(f) == 2 * 6 - 1


class TestPickAndIterate:
    def test_pick_one_satisfies(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            assignment = f.pick_one()
            assert assignment is not None
            full = {name: assignment.get(name, False)
                    for name in m.var_names}
            assert f(**full)

    def test_pick_one_of_false(self):
        m = Manager()
        assert m.false.pick_one() is None

    def test_iter_minterms_count(self):
        m, vs = fresh_manager(4)
        f = (vs[0] & vs[1]) | (vs[2] & vs[3])
        minterms = list(f.iter_minterms(["x0", "x1", "x2", "x3"]))
        assert len(minterms) == f.sat_count(4)
        for assignment in minterms:
            assert f(**assignment)

    def test_iter_minterms_default_support(self):
        m, vs = fresh_manager(4)
        f = vs[1] & ~vs[2]
        minterms = list(f.iter_minterms())
        assert minterms == [{"x1": True, "x2": False}]

    def test_iter_minterms_outside_support_raises(self):
        m, vs = fresh_manager(2)
        f = vs[0] & vs[1]
        with pytest.raises(ValueError):
            list(f.iter_minterms(["x0"]))

    def test_iter_minterms_repeated_name_raises(self):
        # Enumerating x0 twice yielded {x0: False, x1: True}, which is
        # not a minterm of x0 & x1.
        m, vs = fresh_manager(2)
        f = vs[0] & vs[1]
        with pytest.raises(ValueError, match="'x0' named twice"):
            list(f.iter_minterms(["x0", "x0", "x1"]))


class TestGarbageInteraction:
    def test_many_temporaries_then_gc(self, rng):
        m, vs = fresh_manager(8)
        f = random_function(m, vs, rng)
        expected = f.sat_count()
        for _ in range(50):
            g = random_function(m, vs, rng, terms=3)
            _ = g & f
        import gc
        gc.collect()
        m.collect_garbage()
        assert f.sat_count() == expected
        m.debug_check()
