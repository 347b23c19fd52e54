"""End-to-end daemon tests over real sockets (in-process server).

Covers the verb surface, handle semantics, session isolation and GC,
overload refusal, and the stats/health snapshots.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.bdd import Manager
from repro.fsm.benchmarks import counter
from repro.fsm.blif import write_blif
from repro.serve import (MAX_LINE, Client, ClientTimeout, Server,
                         ServerError)
from repro.serve.session import MAX_COUNT_VARS

from ..helpers import MANAGER_SETTINGS, SETTINGS


def _wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


@pytest.fixture(params=SETTINGS)
def server(request, server_factory):
    return server_factory(**MANAGER_SETTINGS[request.param], workers=2)


@pytest.fixture
def client(server, client_factory):
    return client_factory(server.port)


def test_greeting_advertises_protocol_and_backend(server, client):
    assert client.greeting["serve"] == "repro"
    assert client.greeting["protocol"] == 1
    assert client.greeting["backend"] == server.server.backend
    assert client.session.startswith("s")


def test_var_apply_ite_roundtrip(client):
    a = client.var("a")
    b = client.var("b")
    c = client.var("c")
    f = client.apply("and", a, b)
    g = client.apply("or", f, c)
    h = client.ite(a, b, c)
    assert client.count(g, nvars=3)["sat_count"] == 5
    assert client.count(h, nvars=3)["sat_count"] == 4
    assert client.apply("leq", f, g) is True
    assert client.apply("leq", g, f) is False


def test_var_is_idempotent_and_reports_fresh(client):
    first = client.call("var", {"name": "a"})
    again = client.call("var", {"name": "a"})
    assert first["fresh"] is True
    assert again["fresh"] is False
    assert first["handle"] == again["handle"]
    assert first["level"] == again["level"]


def test_handles_deduplicate_by_canonicity(client):
    """Equal functions get equal handle strings (ROBDD canonicity)."""
    a = client.var("a")
    b = client.var("b")
    left = client.apply("and", a, b)
    right = client.apply("and", b, a)
    assert left == right
    demorgan = client.apply("not", client.apply(
        "or", client.apply("not", a), client.apply("not", b)))
    assert demorgan == left


def test_constant_results_are_flagged(client):
    a = client.var("a")
    taut = client.call("apply", {"op": "or", "f": a,
                                 "g": client.apply("not", a)})
    contra = client.call("apply", {"op": "and", "f": a,
                                   "g": client.apply("not", a)})
    assert taut["constant"] is True and taut["nodes"] == 0
    assert contra["constant"] is False and contra["nodes"] == 0


def test_minterms_enumeration(client):
    a = client.var("a")
    b = client.var("b")
    f = client.apply("xor", a, b)
    minterms = client.minterms(f, names=["a", "b"])
    assert sorted(minterms, key=lambda m: (m["a"], m["b"])) == [
        {"a": False, "b": True}, {"a": True, "b": False}]


def test_minterms_refuses_wide_enumeration(client):
    a = client.var("a")
    with pytest.raises(ServerError) as excinfo:
        client.minterms(a, names=[f"v{i}" for i in range(20)])
    assert excinfo.value.code == "bad-request"


def test_minterms_rejects_repeated_name(client):
    f = client.apply("and", client.var("a"), client.var("b"))
    with pytest.raises(ServerError) as excinfo:
        client.minterms(f, names=["a", "a", "b"])
    assert excinfo.value.code == "bad-request"
    assert "'a'" in str(excinfo.value)
    # The connection stays open.
    assert client.minterms(f, names=["a", "b"]) == [{"a": True,
                                                    "b": True}]


def test_approx_and_decomp_verbs(client):
    variables = [client.var(f"x{i}") for i in range(6)]
    f = variables[0]
    for v in variables[1:]:
        f = client.apply("xor", f, v)
    approx = client.approx("hb", f, threshold=3)
    # Under-approximation: result implies f, density reported.
    assert client.apply("leq", approx["handle"], f) is True
    assert 0.0 <= approx["density"] <= 1.0
    assert approx["exact"] == (approx["handle"] == f)

    decomp = client.decomp("cofactor", f)
    g, h = decomp["g"]["handle"], decomp["h"]["handle"]
    assert client.apply("and", g, h) == f  # conjunctive: g & h == f


def test_unknown_approx_method_is_bad_request(client):
    a = client.var("a")
    with pytest.raises(ServerError) as excinfo:
        client.approx("nope", a)
    assert excinfo.value.code == "bad-request"


def test_approx_rejects_bad_quality(client):
    f = client.apply("or", client.var("a"), client.var("b"))
    for quality in ("x", None, "nan", "1.0", True, [1.0],
                    float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ServerError) as excinfo:
            client.call("approx", {"method": "rua", "f": f,
                                   "quality": quality})
        assert excinfo.value.code == "bad-request", quality
    # Only methods whose registered signature takes a quality accept one.
    for method in ("hb", "sp", "ua"):
        with pytest.raises(ServerError) as excinfo:
            client.call("approx", {"method": method, "f": f,
                                   "quality": 1.0})
        assert excinfo.value.code == "bad-request", method
    for method in ("rua", "c1", "c2"):
        for quality in (1, 1.5, 0.25):
            result = client.call("approx", {"method": method, "f": f,
                                            "quality": quality})
            assert client.apply("leq", result["handle"], f) is True


def test_count_rejects_bad_nvars(client):
    f = client.apply("and", client.var("a"), client.var("b"))
    for nvars in (1, 0, -1, "2", True, 2.0, MAX_COUNT_VARS + 1, 10**9):
        with pytest.raises(ServerError) as excinfo:
            client.call("count", {"f": f, "nvars": nvars})
        assert excinfo.value.code == "bad-request", nvars
    true = client.apply("or", f, client.apply("not", f))
    with pytest.raises(ServerError) as excinfo:
        client.count(true, nvars=-1)
    assert excinfo.value.code == "bad-request"
    assert client.count(true, nvars=0)["sat_count"] == 1
    assert client.count(f, nvars=2)["sat_count"] == 1
    assert client.call("count", {"f": f, "nvars": None})["sat_count"] \
        == client.count(f)["sat_count"]


def test_density_past_float_range_is_null(client):
    """One literal over 1,026 variables has density 2**1025, past the
    float range: replies carry null, so the wire stays standard JSON."""
    a = client.var("x0")
    assert client.count(a, nvars=1026)["density"] is None
    assert client.count(a, nvars=3)["density"] == 4.0
    for i in range(1, 1026):
        client.var(f"x{i}")
    assert client.count(a)["density"] is None
    approx = client.approx("hb", a)
    assert approx["density"] is None
    assert approx["exact"] is True


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit")
def test_unencodable_reply_keeps_connection(client):
    """A count past the int-to-str digit limit cannot be encoded: the
    request answers ``internal`` and the connection stays usable."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        a = client.var("a")
        # 2**14999 has 4,516 digits.
        with pytest.raises(ServerError) as excinfo:
            client.count(a, nvars=15_000)
        assert excinfo.value.code == "internal"
        assert excinfo.value.kind == "ValueError"
        assert client.count(a, nvars=2)["sat_count"] == 2
        assert client.stats()["server"]["errors"] == {"internal": 1}
    finally:
        sys.set_int_max_str_digits(limit)


def test_unknown_verb_error(client):
    with pytest.raises(ServerError) as excinfo:
        client.call("frobnicate")
    assert excinfo.value.code == "unknown-verb"
    # The error names the known verbs to help a confused client.
    assert "apply" in excinfo.value.message


def test_bad_handle_error(client):
    with pytest.raises(ServerError) as excinfo:
        client.count("h999")
    assert excinfo.value.code == "bad-handle"


def test_malformed_request_keeps_connection_usable(client):
    client._file.write(b"this is not json\n")
    client._file.flush()
    response = client._read_message()
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"
    assert client.var("a")  # connection still works


def test_request_id_is_echoed_verbatim(client):
    client._file.write(json.dumps(
        {"id": ["compound", 1], "verb": "health"}).encode() + b"\n")
    client._file.flush()
    response = client._read_message()
    assert response["id"] == ["compound", 1]
    assert response["ok"] is True


def test_release_drops_handle(client):
    a = client.var("a")
    b = client.var("b")
    f = client.apply("and", a, b)
    assert client.release(f) is True
    assert client.release(f) is False  # already gone
    with pytest.raises(ServerError) as excinfo:
        client.count(f)
    assert excinfo.value.code == "bad-handle"
    # Recomputing re-interns under a fresh handle id.
    again = client.apply("and", a, b)
    assert again != f
    assert client.count(again, nvars=2)["sat_count"] == 1


def test_check_verb_reports_clean_graph(client):
    a = client.var("a")
    client.apply("xor", a, client.var("b"))
    result = client.check()
    assert result["ok"] is True
    assert result["diagnostics"] == []


def test_reach_verb_counter(client):
    blif = write_blif(counter(3))
    result = client.reach(blif)
    assert result["method"] == "bfs"
    assert result["complete"] is True
    assert result["states"] == 8
    assert result["iterations"] >= 1
    assert result["aborts"] == 0


def test_reach_counts_governor_events_in_its_reply(client):
    """reach runs on the circuit's own manager, so its reply is where
    the ladder's degradations show; a raise-mode abort is one
    ``budget`` error."""
    blif = write_blif(counter(8))
    degraded = client.reach(blif, budget={"step": 64},
                            on_blowup="subset")
    assert degraded["complete"] is True and degraded["states"] == 256
    assert degraded["aborts"] > 0 and degraded["degradations"] > 0
    with pytest.raises(ServerError) as excinfo:
        client.reach(blif, budget={"step": 64})
    assert excinfo.value.code == "budget"
    stats = client.stats()
    assert stats["server"]["errors"] == {"budget": 1}
    # Neither traversal touched the session's own manager.
    manager = stats["session"]["manager"]
    assert manager["aborts"] == {} and manager["degradations"] == {}


def test_reach_high_density_matches_bfs(client):
    blif = write_blif(counter(3))
    bfs = client.reach(blif)
    hd = client.reach(blif, method="hb", threshold=64)
    assert hd["complete"] is True
    assert hd["states"] == bfs["states"]


def test_reach_rejects_bad_blif(client):
    for blif in (".broken\n",
                 ".inputs a a\n.end\n",
                 ".latch n q 0\n.latch n q 1\n.names q n\n1 1\n.end\n",
                 ".inputs a b\n.outputs z\n.names a z\n1 1\n"
                 ".names b z\n1 1\n.end\n",
                 ".model m\n.latch b b 2\n.end\n",
                 ".model m\n.latch b b\n.end\n"):
        with pytest.raises(ServerError) as excinfo:
            client.reach(blif)
        assert excinfo.value.code == "bad-request", blif
    # The connection stays open.
    assert client.reach(write_blif(counter(2)))["complete"] is True


def test_reach_rejects_bad_int_params(client):
    blif = write_blif(counter(3))
    for params in ({"max_iterations": "3"}, {"max_iterations": True},
                   {"max_iterations": -1}, {"max_iterations": 2.0},
                   {"method": "rua", "threshold": "x"},
                   {"method": "rua", "threshold": False},
                   {"method": []}, {"method": {}},
                   {"on_blowup": []}, {"on_blowup": {}}):
        with pytest.raises(ServerError) as excinfo:
            client.reach(blif, **params)
        assert excinfo.value.code == "bad-request", params
    # Null is "no limit", 0 stops before the first image.
    assert client.reach(blif, max_iterations=None)["complete"] is True
    stopped = client.reach(blif, max_iterations=0)
    assert stopped["complete"] is False
    assert stopped["iterations"] == 0


def test_hung_server_raises_client_timeout():
    """A server that accepts but never answers must not hang the
    client: the greeting read trips ``read_timeout``."""
    listener = socket.socket()
    held = []
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def hold():
            conn, _ = listener.accept()
            held.append(conn)
            time.sleep(30)

        threading.Thread(target=hold, daemon=True).start()
        start = time.monotonic()
        with pytest.raises(ClientTimeout) as excinfo:
            Client(port=listener.getsockname()[1], read_timeout=0.5)
        assert time.monotonic() - start < 10
        assert excinfo.value.seconds == 0.5
        assert isinstance(excinfo.value, ConnectionError)
    finally:
        for conn in held:
            conn.close()
        listener.close()


def test_read_timeout_defaults_to_timeout(server):
    with Client(port=server.port, timeout=30.0) as c:
        assert c.read_timeout == 30.0
        assert c._sock.gettimeout() == 30.0
    with Client(port=server.port, timeout=30.0, read_timeout=5.0) as c:
        assert c.read_timeout == 5.0
        assert c._sock.gettimeout() == 5.0
        assert c.count(c.var("a"))["sat_count"] == 1


def test_sessions_are_isolated(server, client_factory):
    c1 = client_factory(server.port)
    c2 = client_factory(server.port)
    assert c1.session != c2.session
    a1 = c1.var("a")
    # Handle ids are per-session: h1 on c2 does not exist until made.
    with pytest.raises(ServerError) as excinfo:
        c2.count(a1)
    assert excinfo.value.code == "bad-handle"
    a2 = c2.var("a")
    b2 = c2.var("b")
    c2.apply("and", a2, b2)
    # c1's manager never saw "b".
    assert c1.count(c1.var("a"))["support"] == ["a"]
    stats1 = c1.stats()["session"]
    stats2 = c2.stats()["session"]
    assert stats1["id"] != stats2["id"]
    assert stats2["handles"] >= 3


def test_session_gc_on_disconnect(server, client_factory):
    daemon = server.server
    client = client_factory(server.port)
    client.var("a")
    _wait_for(lambda: daemon.num_sessions == 1, what="session open")
    client.close()
    _wait_for(lambda: daemon.num_sessions == 0, what="session GC")
    _wait_for(lambda: daemon.stats.sessions_closed == 1,
              what="close accounting")


def test_overload_refusal_and_recovery(server_factory, client_factory):
    handle = server_factory(max_sessions=2)
    keep = [client_factory(handle.port) for _ in range(2)]
    with pytest.raises(ServerError) as excinfo:
        Client(port=handle.port, connect_timeout=2.0)
    assert excinfo.value.code == "overload"
    # Freeing a slot lets the next connection in.
    keep[0].close()
    _wait_for(lambda: handle.server.num_sessions == 1,
              what="slot release")
    replacement = client_factory(handle.port)
    assert replacement.var("a")
    assert handle.server.stats.sessions_rejected == 1


@pytest.mark.parametrize("setting", [{"cache_limit": 0},
                                     {"gc_threshold": 0}])
def test_bad_manager_setting_refused_at_boot(setting):
    with pytest.raises(ValueError, match="must be positive"):
        Server(**setting)


def test_oversized_line_closes_connection(server):
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        stream = sock.makefile("rwb")
        stream.readline()  # greeting
        stream.write(b"x" * (MAX_LINE + 16) + b"\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert stream.readline() == b""  # server hung up


def test_stats_and_health_snapshots(server, client):
    a = client.var("a")
    client.apply("and", a, client.var("b"))
    with pytest.raises(ServerError):
        client.call("frobnicate")
    health = client.health()
    assert health["status"] == "ok"
    assert health["backend"] == server.server.backend
    assert health["sessions"] == 1

    stats = client.stats()
    top = stats["server"]
    assert top["backend"] == server.server.backend
    assert top["sessions"]["open"] == 1
    assert top["verbs"]["var"] == 2
    assert top["errors"]["unknown-verb"] == 1
    # Governor counters live per manager (stats.session.manager, each
    # reach reply); the server counts aborts as budget errors.
    assert "aborts" not in top and "degradations" not in top
    assert top["scheduler"]["workers"] == 2
    assert top["scheduler"]["dispatched"] >= 3

    mine = stats["session"]
    assert mine["handles"] == 3
    assert mine["requests"] >= 4
    assert mine["manager"]["nodes"] >= 3
    assert mine["manager"].keys() == Manager().stats.as_dict().keys()


def _build_dnf(client, nvars, seed, terms=14, width=4, budget=None):
    """Build a seeded random DNF server-side; returns its handle.

    Kernel checkpoints fire every CHECK_STRIDE steps, so only sizable
    operands make budget tests meaningful — two of these conjoined
    comfortably exceed one stride.
    """
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(nvars)]
    acc = None
    for _ in range(terms):
        term = None
        for name in rng.sample(names, width):
            literal = client.var(name, budget=budget)
            if rng.random() < 0.5:
                literal = client.apply("not", literal, budget=budget)
            term = (literal if term is None else
                    client.apply("and", term, literal, budget=budget))
        acc = (term if acc is None else
               client.apply("or", acc, term, budget=budget))
    return acc


def test_per_request_budget_overrides_server_default(server_factory,
                                                     client_factory):
    # Server default budget is tiny; a generous per-request budget
    # must override it (merge semantics, not min()).
    big = {"step": 10_000_000}
    handle = server_factory(step_budget=1)
    client = client_factory(handle.port)
    f = _build_dnf(client, 12, seed=1, budget=big)
    g = _build_dnf(client, 12, seed=2, budget=big)
    with pytest.raises(ServerError) as excinfo:
        client.apply("and", f, g)  # default step budget: aborts
    assert excinfo.value.is_budget
    assert excinfo.value.kind == "BudgetExceeded"
    conj = client.apply("and", f, g, budget=big)
    assert client.apply("leq", conj, f, budget=big) is True


def test_bad_budget_spec_is_bad_request(client):
    a = client.var("a")
    # Node and step bounds are ints >= 1 (never bools); the deadline is
    # a finite number >= 0 (the protocol's JSON parser accepts NaN).
    for budget in ({"steps": 5}, [1], {"node": "x"}, {"node": True},
                   {"node": 0}, {"step": [1]}, {"step": 2.5},
                   {"deadline": "5"}, {"deadline": float("nan")},
                   {"deadline": float("inf")}, {"deadline": -1},
                   {"deadline": 10 ** 400}):
        with pytest.raises(ServerError) as excinfo:
            client.call("count", {"f": a, "budget": budget})
        assert excinfo.value.code == "bad-request", budget
    # Good bounds and null (no bound) still work on the same session.
    for budget in ({"node": 10 ** 6, "step": 10 ** 6, "deadline": 30},
                   {"deadline": 0.5}, {"node": None}):
        assert client.call("count", {"f": a, "budget": budget})
