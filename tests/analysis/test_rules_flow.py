"""Targeted tests for the flow-aware rules (RPR007..RPR011)."""

from __future__ import annotations

from repro.analysis import lint_source

SERVE = "# repro-lint: serve\n"
GOVERNED = "# repro-lint: governed\n"
REFS = "# repro-lint: refs\n"


def findings(source: str, rule: str, path: str = "mod.py"):
    return [v for v in lint_source(source, path=path)
            if v.rule == rule]


# -- RPR007 ------------------------------------------------------------

def test_rpr007_ignores_non_serve_modules():
    source = (
        "import time\n"
        "async def handler():\n"
        "    time.sleep(1)\n"
    )
    assert findings(source, "RPR007") == []


def test_rpr007_serve_path_activates_without_pragma():
    source = (
        "import time\n"
        "async def handler():\n"
        "    time.sleep(1)\n"
    )
    assert findings(source, "RPR007",
                    path="src/repro/serve/thing.py")


def test_rpr007_awaited_calls_are_exempt():
    source = SERVE + (
        "import asyncio\n"
        "async def handler(executor):\n"
        "    await asyncio.to_thread(executor.shutdown)\n"
    )
    assert findings(source, "RPR007") == []


def test_rpr007_from_import_sleep_alias():
    source = SERVE + (
        "from time import sleep as snooze\n"
        "async def handler():\n"
        "    snooze(1)\n"
    )
    (violation,) = findings(source, "RPR007")
    assert "time.sleep" in violation.message


def test_rpr007_traversal_stops_at_async_callees():
    # handler -> other_async: calling an async def only builds a
    # coroutine, so other_async's body is not an event-loop path *via
    # this edge* — it is async itself and scanned independently; the
    # sync helper below it is only reachable from nothing.
    source = SERVE + (
        "import time\n"
        "async def handler():\n"
        "    return other_async()\n"
        "def helper():\n"
        "    time.sleep(1)\n"
        "async def other_async():\n"
        "    return 1\n"
    )
    assert findings(source, "RPR007") == []


def test_rpr007_transitive_sync_helper_is_flagged():
    source = SERVE + (
        "import time\n"
        "async def handler():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return deeper()\n"
        "def deeper():\n"
        "    time.sleep(1)\n"
    )
    (violation,) = findings(source, "RPR007")
    assert "deeper" in violation.message
    assert "handler" in violation.message


def test_rpr007_annotated_manager_param():
    source = SERVE + (
        "async def snapshot(m: Manager):\n"
        "    return m.apply('and', 1, 2)\n"
    )
    (violation,) = findings(source, "RPR007")
    assert "kernel call" in violation.message


# -- RPR008 ------------------------------------------------------------

def test_rpr008_session_methods_are_exempt():
    source = SERVE + (
        "class Session:\n"
        "    def execute(self, verb):\n"
        "        session = self\n"
        "        return session.manager\n"
    )
    assert findings(source, "RPR008") == []


def test_rpr008_submit_arguments_are_exempt():
    source = SERVE + (
        "def dispatch(executor, session, verb):\n"
        "    return executor.submit(session.id, session.execute, verb)\n"
    )
    assert findings(source, "RPR008") == []


def test_rpr008_token_run_arguments_are_exempt():
    source = SERVE + (
        "def dispatch(token, session, verb):\n"
        "    token.run(session.id, session.manager.reorder)\n"
        "    return token.run(session.id, session.execute, verb)\n"
    )
    assert findings(source, "RPR008") == []
    # The same owned manager outside the token's run is flagged.
    inline = SERVE + (
        "def dispatch(session):\n"
        "    return session.manager.reorder()\n"
    )
    assert findings(inline, "RPR008")


def test_rpr008_direct_execute_is_flagged():
    source = SERVE + (
        "def dispatch(session, verb):\n"
        "    return session.execute(verb)\n"
    )
    assert findings(source, "RPR008")


def test_rpr008_iteration_over_sessions_classifies():
    source = SERVE + (
        "def stats(sessions):\n"
        "    return [s.manager for s in sessions]\n"
    )
    # ``for s in <...sessions...>`` provenance applies to comprehension
    # targets as well via the scan's For handling — list comprehensions
    # use comprehension nodes, so this stays conservative: only real
    # for statements classify.
    source2 = SERVE + (
        "def stats(sessions):\n"
        "    out = []\n"
        "    for session in sessions:\n"
        "        out.append(session.manager)\n"
        "    return out\n"
    )
    assert findings(source2, "RPR008")


# -- RPR009 ------------------------------------------------------------

def test_rpr009_spec_conversion_is_exempt():
    source = (
        "def submit(pool, manager):\n"
        "    return pool.put(Task('k', payload=spec_of(manager)))\n"
    )
    assert findings(source, "RPR009") == []


def test_rpr009_positional_payload_flagged():
    source = (
        "def submit(pool, manager):\n"
        "    return pool.put(Task('k', manager))\n"
    )
    (violation,) = findings(source, "RPR009")
    assert "manager" in violation.message


def test_rpr009_function_provenance_from_manager_method():
    source = (
        "def submit(pool, manager):\n"
        "    f = manager.apply('and', 1, 2)\n"
        "    return pool.put(Task('k', f))\n"
    )
    (violation,) = findings(source, "RPR009")
    assert "function" in violation.message


def test_rpr009_mutation_before_freeze_is_fine():
    source = (
        "import gc\n"
        "CACHE = {}\n"
        "def prewarm():\n"
        "    CACHE['a'] = 1\n"
        "    CACHE.update(b=2)\n"
        "    gc.freeze()\n"
        "    return len(CACHE)\n"
    )
    assert findings(source, "RPR009") == []


def test_rpr009_branchy_post_freeze_mutation():
    # The mutation only happens on one path — the may-analysis still
    # catches it, because "frozen" flows through the union join.
    source = (
        "import gc\n"
        "CACHE = {}\n"
        "def prewarm(flag):\n"
        "    if flag:\n"
        "        gc.freeze()\n"
        "    CACHE['late'] = 1\n"
        "    return None\n"
    )
    (violation,) = findings(source, "RPR009")
    assert "gc.freeze" in violation.message


def test_rpr009_mutator_method_after_freeze():
    source = (
        "import gc\n"
        "CACHE = {}\n"
        "def prewarm():\n"
        "    gc.freeze()\n"
        "    CACHE.setdefault('a', 1)\n"
    )
    assert findings(source, "RPR009")


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


def test_rpr010_trivial_cycle_needs_no_checkpoint():
    source = GOVERNED + (
        "def drain(work):\n"
        "    total = 0\n"
        "    while work:\n"
        "        total += work.pop()\n"
        "    return total\n"
    )
    assert findings(source, "RPR010") == []


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


# -- RPR011 ------------------------------------------------------------

def test_rpr011_inactive_without_refs_marker():
    source = (
        "def make(store):\n"
        "    node = store.mk(1, 0, 1)\n"
        "    return None\n"
    )
    assert findings(source, "RPR011") == []


def test_rpr011_all_paths_consume():
    source = REFS + (
        "def make(store, table, key):\n"
        "    node = store.mk(1, 0, 1)\n"
        "    table[key] = node\n"
        "    return node\n"
    )
    assert findings(source, "RPR011") == []


def test_rpr011_mk_alias_recognized():
    source = REFS + (
        "def make(store, flag):\n"
        "    mk = store.mk\n"
        "    node = mk(1, 0, 1)\n"
        "    if flag:\n"
        "        return node\n"
        "    return None\n"
    )
    (violation,) = findings(source, "RPR011")
    assert "node" in violation.message


def test_rpr011_raise_path_is_not_a_leak():
    source = REFS + (
        "def make(store, level):\n"
        "    node = store.mk(level, 0, 1)\n"
        "    if level < 0:\n"
        "        raise ValueError(level)\n"
        "    return node\n"
    )
    assert findings(source, "RPR011") == []


def test_rpr011_reassignment_clears_pending():
    # Overwriting the name loses the handle — but the dataflow models
    # the *name*, and the overwrite is itself a Load-free assign, so
    # the original handle escapes tracking; the rule stays a may-leak
    # warning, not a proof.
    source = REFS + (
        "def make(store, table):\n"
        "    node = store.mk(1, 0, 1)\n"
        "    table['k'] = node\n"
        "    node = None\n"
        "    return node\n"
    )
    assert findings(source, "RPR011") == []
