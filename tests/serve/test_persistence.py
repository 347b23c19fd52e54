"""Daemon persistence: save/load verbs, restarts, snapshots.

The warm-restart story of ``docs/persistence.md``: a daemon booted
with ``--store DIR`` can persist session handles by name and a
*restarted* daemon (new process, new managers) serves them back from
the store without re-running the computation that produced them.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.bdd import Manager
from repro.serve import Client, ServerError
from repro.store import BDDStore

from .conftest import serve_subprocess


def xor_chain(client, n=4):
    f = client.var("x0")
    for i in range(1, n):
        f = client.apply("xor", f, client.var(f"x{i}"))
    return f


def test_save_load_roundtrip(tmp_path, server_factory, client_factory):
    server = server_factory(store=str(tmp_path / "store"))
    client = client_factory(server.port)
    f = xor_chain(client)
    saved = client.call("save", {"name": "parity4", "f": f,
                                 "tags": ["unit"]})
    assert saved["name"] == "parity4"
    assert len(saved["hash"]) == 64
    assert saved["nodes"] == 7

    loaded = client.call("load", {"name": "parity4"})
    # Canonicity: the loaded function interns to the same handle.
    assert loaded["handle"] == f
    assert loaded["nodes"] == 7


def test_restarted_daemon_serves_stored_handles(tmp_path,
                                                server_factory,
                                                client_factory):
    store_dir = str(tmp_path / "store")
    first = server_factory(store=store_dir)
    client = client_factory(first.port)
    f = xor_chain(client)
    digest = client.call("save", {"name": "parity4", "f": f})["hash"]
    first.stop()

    second = server_factory(store=store_dir)
    client2 = client_factory(second.port)
    loaded = client2.call("load", {"name": "parity4"})
    assert loaded["nodes"] == 7
    assert client2.count(loaded["handle"], nvars=4)["sat_count"] == 8
    # And the out-of-band view agrees with what the daemon serves.
    manager = Manager()
    manager.add_vars(*(f"x{i}" for i in range(4)))
    offline = BDDStore(store_dir).load(manager, "parity4")
    assert offline.sat_count() == 8
    assert BDDStore(store_dir).entries()[0]["hash"] == digest


def test_health_reports_store(tmp_path, server_factory,
                              client_factory):
    store_dir = tmp_path / "store"
    BDDStore(store_dir).save("seed", Manager().true)
    server = server_factory(store=str(store_dir))
    health = client_factory(server.port).health()
    assert health["store"] == str(store_dir)
    assert health["store_entries_at_boot"] == 1


def test_no_store_attached_is_bad_request(server_factory,
                                          client_factory):
    server = server_factory()
    client = client_factory(server.port)
    with pytest.raises(ServerError) as excinfo:
        client.call("save", {"name": "x", "f": client.var("a")})
    assert excinfo.value.code == "bad-request"
    assert "no store attached" in str(excinfo.value)


def test_store_errors_carry_structured_code(tmp_path, server_factory,
                                            client_factory):
    server = server_factory(store=str(tmp_path / "store"))
    client = client_factory(server.port)
    with pytest.raises(ServerError) as excinfo:
        client.call("load", {"name": "ghost"})
    assert excinfo.value.code == "store"
    assert "unknown function" in str(excinfo.value)


def test_bad_save_params_rejected(tmp_path, server_factory,
                                  client_factory):
    server = server_factory(store=str(tmp_path / "store"))
    client = client_factory(server.port)
    a = client.var("a")
    for params in ({"name": "", "f": a},
                   {"name": "x", "f": a, "tags": "not-a-list"},
                   {"name": 7, "f": a}):
        with pytest.raises(ServerError) as excinfo:
            client.call("save", params)
        assert excinfo.value.code == "bad-request"
    for tags in (["x,y"], [""]):
        with pytest.raises(ServerError) as excinfo:
            client.call("save", {"name": "x", "f": a, "tags": tags})
        assert excinfo.value.code == "store"


def test_snapshot_on_shutdown_and_restore(tmp_path, server_factory,
                                          client_factory):
    store_dir = str(tmp_path / "store")
    server = server_factory(store=store_dir, snapshot=True)
    client = client_factory(server.port)
    session = client.session
    f = xor_chain(client, 3)
    server.stop()

    entries = BDDStore(store_dir).entries(
        prefix=f"snapshot/{session}/")
    # Every handle the session held (3 vars + 2 xor intermediates,
    # deduplicated by canonicity) made it to disk, and each restores
    # to a live function.
    names = {e["name"].rsplit("/", 1)[1] for e in entries}
    assert f in names
    assert len(entries) >= 4
    manager = Manager()
    store = BDDStore(store_dir)
    for entry in entries:
        g = store.load(manager, entry["name"])
        assert entry["nodes"] == len(g)
        assert "snapshot" in entry["tags"]


def test_sigint_with_idle_client_snapshots_and_exits(tmp_path):
    """SIGINT stops the daemon promptly even while a client sits idle
    on its connection, and that session's snapshot reaches the store."""
    store_dir = tmp_path / "store"
    # A child inherits an ignored SIGINT (say, from a shell's background
    # job) across exec; a handled one reverts to the default there.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with serve_subprocess("--store", str(store_dir), "--snapshot"
                              ) as (process, port):
            with Client(port=port) as client:
                f = xor_chain(client, 3)
                process.send_signal(signal.SIGINT)
                began = time.monotonic()
                assert process.wait(timeout=5) == 0
                assert time.monotonic() - began < 5
    finally:
        signal.signal(signal.SIGINT, previous)
    entries = BDDStore(store_dir).entries(
        prefix=f"snapshot/{client.session}/")
    assert f in {e["name"].rsplit("/", 1)[1] for e in entries}
    assert len(entries) >= 4


def test_snapshot_without_store_refused():
    from repro.serve import Server

    with pytest.raises(ValueError, match="snapshot requires"):
        Server(snapshot=True)
