"""Fixtures for the service-daemon suites.

``server_factory`` boots an in-process daemon (:class:`ServerThread`)
and guarantees teardown; ``serve_subprocess`` runs the real
``python -m repro serve`` CLI for tests that need process isolation
(environment round-trips, CLI behavior).
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.serve import Client, ServerThread

#: src/ directory the subprocess needs on PYTHONPATH.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


@pytest.fixture
def server_factory():
    """Factory for in-thread servers; every server stops at teardown."""
    handles = []

    def boot(**kwargs) -> ServerThread:
        handle = ServerThread(**kwargs).start()
        handles.append(handle)
        return handle

    yield boot
    for handle in handles:
        handle.stop()


@contextmanager
def serve_subprocess(*args: str, env: dict | None = None):
    """Run ``python -m repro serve`` and yield (process, port).

    The daemon prints its listen line on stdout once bound; the port
    is parsed from it.  The process is terminated on exit.
    """
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = SRC_DIR + os.pathsep \
        + full_env.get("PYTHONPATH", "")
    if env:
        full_env.update(env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=full_env)
    try:
        line = process.stdout.readline()
        assert "listening on" in line, (
            f"daemon failed to boot: {line!r} / "
            f"{process.stderr.read() if process.poll() is not None else ''}")
        port = int(line.split("listening on ")[1]
                   .split(" ")[0].rsplit(":", 1)[1])
        yield process, port
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
        process.stderr.close()


@pytest.fixture
def client_factory():
    """Factory for clients; every client closes at teardown."""
    clients = []

    def connect(port: int, **kwargs) -> Client:
        client = Client(port=port, **kwargs)
        clients.append(client)
        return client

    yield connect
    for client in clients:
        client.close()
