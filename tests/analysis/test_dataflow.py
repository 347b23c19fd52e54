"""Dataflow framework tests: joins, fixpoints, per-statement replay."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import Fact, ForwardAnalysis, gen_kill


def cfg_of(source: str):
    func = ast.parse(source).body[0]
    return build_cfg(func)


def assigned_name(stmt: ast.AST) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def defined_vars_transfer(stmt: ast.AST, fact: Fact) -> Fact:
    name = assigned_name(stmt)
    return fact | {name} if name else fact


def test_straight_line_accumulates_facts():
    cfg = cfg_of("def f():\n    a = 1\n    b = 2\n    return a + b\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer).run()
    assert analysis.exit_fact() == {"a", "b"}


def test_union_join_is_may_analysis():
    cfg = cfg_of(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "    else:\n"
        "        b = 2\n"
        "    return x\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer).run()
    # May-defined: either branch's name survives the merge.
    assert analysis.exit_fact() == {"a", "b"}


def test_intersection_join_is_must_analysis():
    cfg = cfg_of(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "        c = 3\n"
        "    else:\n"
        "        b = 2\n"
        "        c = 4\n"
        "    return x\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer,
                               join="intersection").run()
    # Must-defined: only ``c`` is assigned on every path.
    assert analysis.exit_fact() == {"c"}


def test_loop_reaches_fixpoint():
    cfg = cfg_of(
        "def f(xs):\n"
        "    total = 0\n"
        "    for x in xs:\n"
        "        total = total + x\n"
        "        seen = True\n"
        "    return total\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer).run()
    # ``seen`` may be defined (loop ran >= once) — union keeps it.
    assert {"total", "seen"} <= analysis.exit_fact()


def test_gen_kill_helper():
    cfg = cfg_of("def f():\n    a = 1\n    return a\n")
    transfer = gen_kill(frozenset({"g"}), frozenset({"k"}))
    analysis = ForwardAnalysis(
        cfg, transfer, entry_fact=frozenset({"k", "keep"})).run()
    assert analysis.exit_fact() == {"g", "keep"}


def test_entry_fact_flows_forward():
    cfg = cfg_of("def f():\n    return 1\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer,
                               entry_fact=frozenset({"seed"})).run()
    assert "seed" in analysis.exit_fact()


def test_unreachable_block_has_empty_fact():
    cfg = cfg_of(
        "def f():\n"
        "    return 1\n"
        "    a = 2\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer).run()
    # The post-return block never runs; its fact defaults to empty
    # rather than poisoning the analysis.
    for block_id, block in cfg.blocks.items():
        if any(assigned_name(s) == "a" for s in block.statements):
            assert analysis.fact_in(block_id) == frozenset()


def test_unknown_join_rejected():
    cfg = cfg_of("def f():\n    return 1\n")
    with pytest.raises(ValueError):
        ForwardAnalysis(cfg, defined_vars_transfer, join="widen")


def test_break_path_facts_flow_to_after_loop():
    cfg = cfg_of(
        "def f(xs):\n"
        "    while xs:\n"
        "        done = True\n"
        "        break\n"
        "    return None\n")
    analysis = ForwardAnalysis(cfg, defined_vars_transfer).run()
    assert "done" in analysis.exit_fact()
