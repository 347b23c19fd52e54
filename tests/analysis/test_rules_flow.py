"""Targeted tests for the flow-aware rule RPR010."""

from __future__ import annotations

import pytest

from repro.analysis import lint_source

GOVERNED = "# repro-lint: governed\n"


def findings(source: str, rule: str, path: str = "mod.py"):
    return [v for v in lint_source(source, path=path)
            if v.rule == rule]


# -- RPR010 ------------------------------------------------------------

def test_rpr010_inactive_without_governed_marker():
    source = (
        "def sweep(manager, xs):\n"
        "    for x in xs:\n"
        "        manager.apply('or', x, x)\n"
    )
    assert findings(source, "RPR010") == []


def test_rpr010_for_loop_without_checkpoint():
    source = GOVERNED + (
        "def sweep(manager, xs):\n"
        "    for x in xs:\n"
        "        manager.apply('or', x, x)\n"
    )
    assert findings(source, "RPR010")


def test_rpr010_checkpoint_in_component_passes():
    source = GOVERNED + (
        "def sweep(manager, xs):\n"
        "    for x in xs:\n"
        "        manager.governor.checkpoint('sweep')\n"
        "        manager.apply('or', x, x)\n"
    )
    assert findings(source, "RPR010") == []


def test_rpr010_checkpoint_alias_recognized():
    source = GOVERNED + (
        "def sweep(manager, xs):\n"
        "    check = manager.governor.checkpoint\n"
        "    for x in xs:\n"
        "        check('sweep')\n"
        "        manager.apply('or', x, x)\n"
    )
    assert findings(source, "RPR010") == []


def test_rpr010_container_calls_exempt_for_loops_only():
    # Cheap per iteration does not bound a while: a worklist drains as
    # slowly as the graph is big.
    drain = GOVERNED + (
        "def drain(work):\n"
        "    total = 0\n"
        "    while work:\n"
        "        total += work.pop()\n"
        "    return total\n"
    )
    assert findings(drain, "RPR010")
    # A for loop doing only container work is bounded by what it
    # iterates.
    gather = GOVERNED + (
        "def gather(items):\n"
        "    seen = set()\n"
        "    for item in items:\n"
        "        seen.add(item)\n"
        "    return seen\n"
    )
    assert findings(gather, "RPR010") == []


def test_rpr010_checkpoint_on_return_path_does_not_count():
    source = GOVERNED + (
        "def drain(manager, work):\n"
        "    while True:\n"
        "        if not work:\n"
        "            manager.governor.checkpoint('drain')\n"
        "            return None\n"
        "        compute(manager, work.pop())\n"
    )
    assert findings(source, "RPR010")


#: Loop shapes and the lines RPR010 flags in them (the pragma is line
#: 1 and the ``def`` line 2).
RPR010_SHAPES = {
    # The outer loop checkpoints on every pass, but the inner worklist
    # can drain a whole batch without one.
    "unchecked-inner-loop": ([7], (
        "def drain_batches(manager, batches):\n"
        "    check = manager.governor.checkpoint\n"
        "    while batches:\n"
        "        check('outer')\n"
        "        work = batches.pop()\n"
        "        while work:\n"
        "            compute(manager, work.pop())\n")),
    "checkpoint-on-break-path": ([3], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        compute(manager, work.pop())\n"
        "        if not work:\n"
        "            manager.governor.checkpoint('drain')\n"
        "            break\n")),
    "checkpoint-on-raise-path": ([3], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        if spent(work):\n"
        "            manager.governor.checkpoint('drain')\n"
        "            raise RuntimeError('spent')\n"
        "        compute(manager, work.pop())\n")),
    "checkpoint-in-loop-else": ([3], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        compute(manager, work.pop())\n"
        "    else:\n"
        "        manager.governor.checkpoint('drain')\n")),
    "checkpoint-in-else-branch": ([], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        if ready(work):\n"
        "            compute(manager, work.pop())\n"
        "        else:\n"
        "            manager.governor.checkpoint('drain')\n")),
    "strided-checkpoint": ([], (
        "def drain(manager, work):\n"
        "    check = manager.governor.checkpoint\n"
        "    ticks = 0\n"
        "    while work:\n"
        "        compute(manager, work.pop())\n"
        "        ticks += 1\n"
        "        if not ticks & MASK:\n"
        "            check('drain')\n")),
    "checkpoint-before-continue": ([], (
        "def first(manager, xs):\n"
        "    for x in xs:\n"
        "        if x is None:\n"
        "            manager.governor.checkpoint('first')\n"
        "            continue\n"
        "        return compute(manager, x)\n")),
    # A while loop's test runs on every pass; a for loop's iterable is
    # evaluated once, before the loop.
    "checkpoint-in-while-test": ([], (
        "def drain(manager, work):\n"
        "    check = manager.governor.checkpoint\n"
        "    while check('drain') is None and work:\n"
        "        compute(manager, work.pop())\n")),
    "checkpoint-in-for-iterable": ([3], (
        "def sweep(manager, xs):\n"
        "    for x in pending(manager.governor.checkpoint('sweep'), xs):\n"
        "        compute(manager, x)\n")),
    "while-true-without-checkpoint": ([3], (
        "def spin(manager, work):\n"
        "    while True:\n"
        "        compute(manager, work.pop())\n")),
    "while-true-with-checkpoint": ([], (
        "def spin(manager, work):\n"
        "    while True:\n"
        "        manager.governor.checkpoint('spin')\n"
        "        if not work:\n"
        "            return None\n"
        "        compute(manager, work.pop())\n")),
    "checkpoint-in-try": ([], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        try:\n"
        "            manager.governor.checkpoint('drain')\n"
        "            compute(manager, work.pop())\n"
        "        except KeyError:\n"
        "            continue\n")),
    "checkpoint-in-finally": ([], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        try:\n"
        "            compute(manager, work.pop())\n"
        "        finally:\n"
        "            manager.governor.checkpoint('drain')\n")),
    "checkpoint-in-with": ([], (
        "def drain(manager, work, lock):\n"
        "    while work:\n"
        "        with lock:\n"
        "            manager.governor.checkpoint('drain')\n"
        "        compute(manager, work.pop())\n")),
    "checkpoint-in-async-with": ([], (
        "async def drain(manager, work, lock):\n"
        "    while work:\n"
        "        async with lock:\n"
        "            manager.governor.checkpoint('drain')\n"
        "        compute(manager, work.pop())\n")),
    "checkpoint-in-match": ([], (
        "def drain(manager, work):\n"
        "    while work:\n"
        "        match work.pop():\n"
        "            case None:\n"
        "                manager.governor.checkpoint('drain')\n"
        "            case item:\n"
        "                compute(manager, item)\n")),
    "nested-loop-checkpoint-covers-outer": ([], (
        "def sweep(manager, rows):\n"
        "    for row in rows:\n"
        "        compute(manager, row)\n"
        "        for cell in row:\n"
        "            manager.governor.checkpoint('sweep')\n"
        "            compute(manager, cell)\n")),
    "body-always-leaves": ([], (
        "def first(manager, work):\n"
        "    while work:\n"
        "        item = compute(manager, work.pop())\n"
        "        if item:\n"
        "            return item\n"
        "        raise LookupError(item)\n")),
    "checkpoint-in-nested-def": ([3], (
        "def build(manager, xs):\n"
        "    for x in xs:\n"
        "        def step():\n"
        "            manager.governor.checkpoint('build')\n"
        "        compute(manager, x, step)\n")),
    "nested-def-loop-checked-once": ([4], (
        "def outer(manager):\n"
        "    def helper(work):\n"
        "        while work:\n"
        "            work.pop()\n"
        "    return helper\n")),
    "async-for": ([3], (
        "async def pump(manager, queue):\n"
        "    async for item in queue:\n"
        "        compute(manager, item)\n")),
}


@pytest.mark.parametrize("shape", list(RPR010_SHAPES))
def test_rpr010_loop_shapes(shape):
    lines, source = RPR010_SHAPES[shape]
    flagged = findings(GOVERNED + source, "RPR010")
    assert [v.line for v in flagged] == lines
