"""Targeted tests for the flow-aware rules (RPR008..RPR010)."""

from __future__ import annotations

from repro.analysis import lint_source

SERVE = "# repro-lint: serve\n"
GOVERNED = "# repro-lint: governed\n"


def findings(source: str, rule: str, path: str = "mod.py"):
    return [v for v in lint_source(source, path=path)
            if v.rule == rule]


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
