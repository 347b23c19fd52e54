"""Stress test for the server-wide counters.

Every connection thread writes the shared ``stats`` counters; with a
tiny thread switch interval, an unlocked read-modify-write would lose
updates and the totals below would drift from what the clients sent.
The scheduler's ``dispatched`` count equals the requests only while
every verb runs under the fair token.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.fsm.benchmarks import counter
from repro.fsm.blif import write_blif
from repro.serve import Client
from repro.serve.session import Session

CLIENTS = 8
ROUNDS = 40
STATS_EVERY = 5


def _script(port: int, errors: list[BaseException]) -> None:
    try:
        with Client(port=port, timeout=60.0) as client:
            a = client.var("a")
            b = client.var("b")
            for i in range(ROUNDS):
                f = client.apply("and", a, b)
                client.apply("or", f, a)
                if i % STATS_EVERY == 0:
                    client.stats()
    except BaseException as exc:  # reported by the main thread
        errors.append(exc)


def test_counters_are_exact_under_thread_stress(server_factory):
    server = server_factory(workers=2, max_sessions=CLIENTS + 1)
    errors: list[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=_script,
                                    args=(server.port, errors),
                                    daemon=True)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    deadline = time.monotonic() + 10
    while server.server.num_sessions and time.monotonic() < deadline:
        time.sleep(0.01)

    with Client(port=server.port, timeout=60.0) as client:
        top = client.stats()["server"]
    sent = {"var": CLIENTS * 2,
            "apply": CLIENTS * ROUNDS * 2,
            # the clients' stats calls, plus the one just made
            "stats": CLIENTS * (ROUNDS // STATS_EVERY) + 1}
    assert top["verbs"] == sent
    assert top["requests"] == sum(sent.values())
    assert top["errors"] == {}
    # Every one of these verbs ran under the fair token.
    assert top["scheduler"]["dispatched"] == top["requests"]
    assert top["scheduler"]["pending"] == 0
    assert top["sessions"]["opened"] == CLIENTS + 1
    assert top["sessions"]["closed"] == CLIENTS


def test_every_verb_runs_under_the_token(tmp_path, server_factory):
    server = server_factory(store=str(tmp_path / "store"))
    with Client(port=server.port, timeout=60.0) as client:
        a = client.var("a")
        client.apply("and", a, a)
        client.ite(a, a, a)
        client.approx("rua", a)
        client.decomp("cofactor", a)
        client.count(a)
        client.minterms(a)
        client.check()
        client.call("save", {"name": "a", "f": a})
        client.call("load", {"name": "a"})
        client.reach(write_blif(counter(2)))
        client.release(a)
        top = client.stats()["server"]
    assert top["verbs"] == {verb: 1 for verb in Session._VERBS}
    assert top["errors"] == {}
    assert top["scheduler"]["dispatched"] == top["requests"]
