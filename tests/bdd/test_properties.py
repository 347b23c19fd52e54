"""Property-based tests of the BDD substrate (hypothesis).

Random boolean expressions are generated as syntax trees, built both as
BDDs and as Python closures, and compared on the full truth table —
canonicity, operator algebra, quantifier laws, cofactor contracts.
The iterative explicit-stack kernels are additionally cross-checked
against the brute-force truth-table oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import Manager, constrain, restrict

from ..helpers import assert_equal_semantics, truth_table

NVARS = 8
NAMES = [f"v{i}" for i in range(NVARS)]


def exprs(depth: int = 4):
    """Strategy for boolean expression trees over NVARS variables."""
    leaves = st.one_of(
        st.sampled_from([("var", name) for name in NAMES]),
        st.sampled_from([("const", False), ("const", True)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.sampled_from(["and", "or", "xor"]), children,
                      children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


# Recursion depth is bounded by the hypothesis strategy's max_leaves,
# not by BDD size.
def build(manager: Manager, expr) -> "Function":  # repro-lint: disable=RPR001
    op = expr[0]
    if op == "var":
        return manager.var(expr[1])
    if op == "const":
        return manager.true if expr[1] else manager.false
    if op == "not":
        return ~build(manager, expr[1])
    a = build(manager, expr[1])
    b = build(manager, expr[2])
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def evaluate(expr, env) -> bool:  # repro-lint: disable=RPR001
    op = expr[0]
    if op == "var":
        return env[expr[1]]
    if op == "const":
        return expr[1]
    if op == "not":
        return not evaluate(expr[1], env)
    a = evaluate(expr[1], env)
    b = evaluate(expr[2], env)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    return a != b


def all_envs():
    for bits in itertools.product([False, True], repeat=NVARS):
        yield dict(zip(NAMES, bits))


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_bdd_matches_semantics(expr):
    manager = Manager(vars=NAMES)
    f = build(manager, expr)
    # The helpers oracle enumerates the full 2^NVARS truth table.
    expected = [evaluate(expr, {NAMES[i]: bool(k >> i & 1)
                                for i in range(NVARS)})
                for k in range(1 << NVARS)]
    assert truth_table(f, NAMES) == expected


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_operator_kernels_match_oracle(e1, e2):
    """Differential check of apply/not/ite against the brute-force
    oracle from tests/helpers.py."""
    manager = Manager(vars=NAMES)
    a = build(manager, e1)
    b = build(manager, e2)

    def ea(**env):
        return evaluate(e1, env)

    def eb(**env):
        return evaluate(e2, env)

    assert_equal_semantics(a & b, lambda **env: ea(**env) and eb(**env),
                           NAMES)
    assert_equal_semantics(a | b, lambda **env: ea(**env) or eb(**env),
                           NAMES)
    assert_equal_semantics(a ^ b, lambda **env: ea(**env) != eb(**env),
                           NAMES)
    assert_equal_semantics(~a, lambda **env: not ea(**env), NAMES)
    assert_equal_semantics(a - b, lambda **env: ea(**env)
                           and not eb(**env), NAMES)
    assert_equal_semantics(a.implies(b),
                           lambda **env: (not ea(**env)) or eb(**env),
                           NAMES)
    assert_equal_semantics(a.ite(b, ~b),
                           lambda **env: eb(**env) if ea(**env)
                           else not eb(**env), NAMES)


@settings(max_examples=80, deadline=None)
@given(exprs(), exprs())
def test_canonicity_equal_functions_same_node(e1, e2):
    manager = Manager(vars=NAMES)
    f = build(manager, e1)
    g = build(manager, e2)
    same = all(evaluate(e1, env) == evaluate(e2, env)
               for env in all_envs())
    assert (f.node == g.node) == same


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_sat_count_matches_enumeration(expr):
    manager = Manager(vars=NAMES)
    f = build(manager, expr)
    expected = sum(evaluate(expr, env) for env in all_envs())
    assert f.sat_count() == expected


@settings(max_examples=60, deadline=None)
@given(exprs(), st.sampled_from(NAMES))
def test_quantifier_laws(expr, name):
    manager = Manager(vars=NAMES)
    f = build(manager, expr)
    exists = f.exists([name])
    forall = f.forall([name])
    assert forall <= f <= exists
    assert exists == (f.cofactor({name: True})
                      | f.cofactor({name: False}))
    assert forall == ~((~f).exists([name]))


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_generalized_cofactor_contracts(e1, e2):
    manager = Manager(vars=NAMES)
    f = build(manager, e1)
    c = build(manager, e2)
    for op in (restrict, constrain):
        r = op(f, c)
        assert (c & r) == (c & f)
    assert restrict(f, c).support() <= f.support()
    # constrain's decomposition identity
    if not c.is_constant:
        assert manager.ite(c, constrain(f, c), constrain(f, ~c)) == f


@settings(max_examples=40, deadline=None)
@given(exprs(), st.permutations(NAMES))
def test_reordering_preserves_semantics(expr, order):
    manager = Manager(vars=NAMES)
    f = build(manager, expr)
    table = [f(**env) for env in all_envs()]
    manager.reorder(list(order))
    manager.debug_check()
    assert [f(**env) for env in all_envs()] == table


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_sifting_preserves_semantics(expr):
    manager = Manager(vars=NAMES)
    f = build(manager, expr)
    count = f.sat_count()
    manager.reorder()
    manager.debug_check()
    assert f.sat_count() == count


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ite_algebra(e1, e2, e3):
    manager = Manager(vars=NAMES)
    f = build(manager, e1)
    g = build(manager, e2)
    h = build(manager, e3)
    assert manager.ite(f, g, h) == ((f & g) | (~f & h))
