"""Fault injection through the server path.

The governor's clean-unwind contract, observed from the wire: injected
aborts and exhausted budgets surface as structured ``budget`` errors,
the session (and every handle) stays usable, and re-running the failed
request yields the exact result an unbudgeted inline manager computes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.decomp import decompose
from repro.serve import ServerError

from ..helpers import MANAGER_SETTINGS, SETTINGS, settings_manager

NVARS = 12
NAMES = [f"x{i}" for i in range(NVARS)]


def _cubes(seed, terms=14, width=4):
    rng = random.Random(seed)
    return [[(name, rng.random() < 0.5)
             for name in rng.sample(NAMES, width)]
            for _ in range(terms)]


def _oracle_dnf(manager, cubes):
    acc = manager.false
    for cube in cubes:
        term = manager.true
        for name, positive in cube:
            v = manager.var(name)
            term &= v if positive else ~v
        acc |= term
    return acc


def _client_dnf(call, cubes):
    """Build the same DNF through a client ``call`` wrapper.

    Variables are declared upfront in ``NAMES`` order so the session's
    variable order matches the oracle's — node counts are only
    comparable under the same order.
    """
    for name in NAMES:
        call("var", {"name": name})
    acc = None
    for cube in cubes:
        term = None
        for name, positive in cube:
            lit = call("var", {"name": name})["handle"]
            if not positive:
                lit = call("apply", {"op": "not", "f": lit})["handle"]
            term = lit if term is None else call(
                "apply", {"op": "and", "f": term, "g": lit})["handle"]
        acc = term if acc is None else call(
            "apply", {"op": "or", "f": acc, "g": term})["handle"]
    return acc


@pytest.fixture(params=SETTINGS)
def setting(request):
    return request.param


@pytest.fixture
def oracle(setting):
    """Inline same-script manager, created BEFORE any env injection."""
    manager = settings_manager(setting)
    for name in NAMES:
        manager.add_var(name)
    f = _oracle_dnf(manager, _cubes(101))
    g = _oracle_dnf(manager, _cubes(202))
    return manager, f, f & g


def test_injected_abort_is_structured_and_retryable(
        setting, oracle, monkeypatch, server_factory, client_factory):
    """REPRO_INJECT_ABORT through the daemon: one structured ``budget``
    error somewhere in the script, then exact agreement on retry."""
    _, _, expected = oracle
    # Sessions read the env when their manager is created (on accept),
    # so setting it after the oracle exists scopes the fault to the
    # server side only.
    monkeypatch.setenv("REPRO_INJECT_ABORT", "apply:1")
    server = server_factory(**MANAGER_SETTINGS[setting])
    client = client_factory(server.port)

    injected = []

    def call(verb, params):
        while True:
            try:
                return client.call(verb, params)
            except ServerError as exc:
                # Structured, typed, and retryable — or it's a bug.
                assert exc.code == "budget"
                assert exc.kind == "InjectedAbort"
                injected.append((verb, dict(params)))

    f = _client_dnf(call, _cubes(101))
    g = _client_dnf(call, _cubes(202))
    conj = call("apply", {"op": "and", "f": f, "g": g})["handle"]

    # The injection is one-shot per manager and armed to fire at the
    # first apply checkpoint, which this script certainly reaches.
    assert len(injected) == 1

    # The session survived: sanitizer-clean graph, exact results.
    check = client.check()
    assert check["ok"] is True, check["diagnostics"]
    count = client.count(conj, nvars=NVARS)
    assert count["nodes"] == len(expected)
    assert count["sat_count"] == expected.sat_count(NVARS)
    names = sorted(expected.support())
    assert client.minterms(conj, names=names) == \
        [dict(m) for m in expected.iter_minterms(names)]

    # The abort is one budget error server-wide and one abort in the
    # session manager's own counters.
    stats = client.stats()
    assert stats["server"]["errors"]["budget"] == 1
    assert sum(stats["session"]["manager"]["aborts"].values()) == 1


@pytest.mark.parametrize("budget,kind", [
    ({"step": 1}, "BudgetExceeded"),
    ({"node": 1}, "BudgetExceeded"),
    ({"deadline": 1e-9}, "DeadlineExceeded"),
])
def test_tiny_budget_then_exact_retry(setting, oracle, server_factory,
                                      client_factory, budget, kind):
    """A starved request fails structurally; the re-run is exact."""
    _, f_expected, expected = oracle
    server = server_factory(**MANAGER_SETTINGS[setting])
    client = client_factory(server.port)

    f = _client_dnf(client.call, _cubes(101))
    g = _client_dnf(client.call, _cubes(202))
    assert client.count(f, nvars=NVARS)["nodes"] == len(f_expected)

    with pytest.raises(ServerError) as excinfo:
        client.call("apply", {"op": "and", "f": f, "g": g},
                    budget=budget)
    assert excinfo.value.code == "budget"
    assert excinfo.value.is_budget
    assert excinfo.value.kind == kind

    # Operands are untouched by the unwind and the same request,
    # re-sent without the starvation budget, is exact.
    assert client.check()["ok"] is True
    conj = client.call("apply",
                       {"op": "and", "f": f, "g": g})["handle"]
    count = client.count(conj, nvars=NVARS)
    assert count["nodes"] == len(expected)
    assert count["sat_count"] == expected.sat_count(NVARS)

    stats = client.stats()
    assert stats["server"]["errors"]["budget"] == 1
    assert sum(stats["session"]["manager"]["aborts"].values()) == 1


def test_decomp_under_step_budget_then_exact_retry(
        setting, oracle, server_factory, client_factory):
    """A starved ``decomp cofactor`` aborts inside the cofactor-size
    kernel with a structured error; the unbudgeted retry returns the
    inline oracle's factors."""
    _, _, expected = oracle
    server = server_factory(**MANAGER_SETTINGS[setting])
    client = client_factory(server.port)

    f = _client_dnf(client.call, _cubes(101))
    g = _client_dnf(client.call, _cubes(202))
    conj = client.call("apply", {"op": "and", "f": f, "g": g})["handle"]

    with pytest.raises(ServerError) as excinfo:
        client.call("decomp", {"method": "cofactor", "f": conj},
                    budget={"step": 64})
    assert excinfo.value.code == "budget"
    assert excinfo.value.kind == "BudgetExceeded"
    assert "'cof'" in excinfo.value.message

    assert client.check()["ok"] is True
    decomp = client.decomp("cofactor", conj)
    for name, factor in zip("gh", decompose(expected, "cofactor")):
        handle = decomp[name]["handle"]
        assert client.count(handle, nvars=NVARS)["nodes"] == len(factor)
        assert client.minterms(handle, names=NAMES) == \
            [dict(m) for m in factor.iter_minterms(NAMES)]


def test_injected_abort_env_does_not_outlive_session(
        setting, monkeypatch, server_factory, client_factory):
    """A session created after the env knob is cleared is fault-free."""
    monkeypatch.setenv("REPRO_INJECT_ABORT", "apply:1")
    server = server_factory(**MANAGER_SETTINGS[setting])
    faulty = client_factory(server.port)
    monkeypatch.delenv("REPRO_INJECT_ABORT")
    clean = client_factory(server.port)

    def script(client):
        aborted = 0
        f = None
        cubes = _cubes(303, terms=14)
        while f is None:
            try:
                f = _client_dnf(client.call, cubes)
            except ServerError as exc:
                assert exc.kind == "InjectedAbort"
                aborted += 1
                # restart the whole script; handles are still valid
        return f, aborted

    _, aborts_faulty = script(faulty)
    _, aborts_clean = script(clean)
    assert aborts_faulty == 1  # one-shot injection fired
    assert aborts_clean == 0   # fresh manager, no injection armed
