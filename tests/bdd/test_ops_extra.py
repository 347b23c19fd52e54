"""N-ary combiners, variable swapping, essential variables."""

from __future__ import annotations

import pytest

from repro.bdd import Manager

from ..helpers import fresh_manager


class TestNary:
    def test_conjoin_matches_fold(self, random_functions):
        m, funcs = random_functions
        expected = m.true
        for f in funcs:
            expected = expected & f
        assert m.conjoin(funcs) == expected

    def test_disjoin_matches_fold(self, random_functions):
        m, funcs = random_functions
        expected = m.false
        for f in funcs:
            expected = expected | f
        assert m.disjoin(funcs) == expected

    def test_empty(self):
        m = Manager()
        assert m.conjoin([]).is_true
        assert m.disjoin([]).is_false

    def test_cross_manager_rejected(self):
        m1, vs1 = fresh_manager(2)
        m2, vs2 = fresh_manager(2)
        with pytest.raises(ValueError):
            m1.disjoin([vs1[0], vs2[0]])

    def test_manager_methods(self, random_functions):
        m, funcs = random_functions
        # Any iterable, consumed once, in any order.
        assert m.conjoin(iter(funcs)) == m.conjoin(funcs[::-1])
        assert m.disjoin(iter(funcs)) == m.disjoin(funcs[::-1])

    def test_manager_method_rejects_foreign(self):
        m1, vs1 = fresh_manager(2)
        m2, vs2 = fresh_manager(2)
        with pytest.raises(ValueError):
            m1.conjoin([vs1[0], vs2[0]])


class TestSwapVariables:
    def test_swap_is_involution(self, random_functions):
        m, funcs = random_functions
        pairs = {"x0": "x5", "x2": "x7"}
        for f in funcs[:4]:
            assert f.swap_variables(pairs).swap_variables(pairs) == f

    def test_swap_semantics(self):
        m, vs = fresh_manager(4)
        f = vs[0] & ~vs[1]
        g = f.swap_variables({"x0": "x1"})
        assert g == (vs[1] & ~vs[0])

    def test_present_next_swap(self):
        m = Manager(vars=["q", "q'"])
        q, qn = m.var("q"), m.var("q'")
        f = q & ~qn
        assert f.swap_variables({"q": "q'"}) == (qn & ~q)


class TestEssentialVariables:
    def test_cube(self):
        m, vs = fresh_manager(4)
        cube = vs[0] & ~vs[2]
        assert cube.essential_variables() == {"x0": True, "x2": False}

    def test_disjunction_has_none(self):
        m, vs = fresh_manager(2)
        assert (vs[0] | vs[1]).essential_variables() == {}

    def test_mixed(self):
        m, vs = fresh_manager(3)
        f = vs[0] & (vs[1] | vs[2])
        assert f.essential_variables() == {"x0": True}

    def test_false(self):
        m = Manager(vars=["a"])
        assert m.false.essential_variables() == {}
