"""The client against scripted (refusing or hung) servers.

A :class:`ScriptedServer` is a bare TCP endpoint speaking just enough
of the wire protocol to exercise the client without a real daemon:
each accepted connection runs one script (greet, answer, reject, or
hang).  The client sends every request once: an error reply or a
refused connection raises, and a hung server times out.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import Client, ClientTimeout, ServerError


class ScriptedServer:
    """Runs one script per accepted connection, in order."""

    def __init__(self, *scripts):
        self.scripts = list(scripts)
        self.requests: list[dict] = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        for script in self.scripts:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                try:
                    script(self, conn.makefile("rwb"))
                except (OSError, ValueError):
                    pass

    def close(self):
        self.sock.close()


def send(file, message):
    file.write(json.dumps(message).encode("utf-8") + b"\n")
    file.flush()


def greet(file, *, ok=True, code="overload"):
    if ok:
        send(file, {"ok": True, "serve": "repro", "protocol": 1,
                    "session": "scripted"})
    else:
        send(file, {"ok": False,
                    "error": {"code": code, "message": "scripted"}})


def rejecting(code):
    """Connection script: refuse with an error greeting and close."""
    def script(server, file):
        greet(file, ok=False, code=code)
    return script


def answering(*outcomes):
    """Connection script: greet, then answer requests per outcome.

    Outcomes: ``"ok"`` (result ``{"value": 42}``), an error code
    string (structured error echoing the request id), or ``"hang"``
    (never answer; blocks until the client hangs up).
    """
    def script(server, file):
        greet(file)
        for outcome in outcomes:
            line = file.readline()
            if not line:
                return
            request = json.loads(line)
            server.requests.append(request)
            if outcome == "hang":
                file.readline()  # the client sends nothing more
                return
            if outcome == "ok":
                send(file, {"id": request["id"], "ok": True,
                            "result": {"value": 42}})
            else:
                send(file, {"id": request["id"], "ok": False,
                            "error": {"code": outcome,
                                      "message": "scripted"}})
    return script


@pytest.fixture
def scripted():
    servers = []

    def boot(*scripts) -> ScriptedServer:
        server = ScriptedServer(*scripts)
        servers.append(server)
        return server

    yield boot
    for server in servers:
        server.close()


def test_overload_greeting_without_retries_raises(scripted):
    server = scripted(rejecting("overload"))
    with pytest.raises(ServerError) as excinfo:
        Client(port=server.port)
    assert excinfo.value.code == "overload"


def test_retries_default_off(scripted):
    """An error reply raises at once: the request is never re-sent,
    though the server would answer a second send."""
    server = scripted(answering("budget", "ok"))
    with Client(port=server.port) as client:
        with pytest.raises(ServerError):
            client.call("ping")
    assert len(server.requests) == 1


def test_hung_server_times_out_without_retry(scripted):
    """Timeouts are never retried: the stream may hold a stale
    response, so a re-send could misattribute answers."""
    server = scripted(answering("hang"))
    with Client(port=server.port, timeout=0.2) as client:
        with pytest.raises(ClientTimeout):
            client.call("ping")
    assert len(server.requests) == 1
