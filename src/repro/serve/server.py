"""The ``repro serve`` daemon: one thread per connection, a fair token.

Layering (transport down to kernels)::

    accept loop                 CLI main thread (or ServerThread's)
      connection threads        one per client: blocking NDJSON I/O
        Server                  session registry, stats/health, errors
          FairToken             round-robin execution permits
            Session             per-client Manager + handle table
              Manager/kernels   the ordinary repro.bdd machinery

The accept loop only accepts (or refuses, beyond ``max_sessions``) and
starts a thread per connection.  That thread owns its session: it
creates it, reads the client's request lines, answers ``health`` at
once, runs every other verb under a permit of the shared
:class:`~repro.serve.scheduler.FairToken` (one call per session at a
time, round-robin across sessions), and writes the reply itself, so no
request crosses threads.  Exceptions map to the structured error codes
of :mod:`repro.serve.protocol` — a governor abort
(:class:`~repro.bdd.governor.ResourceError`) becomes a ``budget`` error
response on a connection that *stays open*, which is the degradation
contract of ``docs/robustness.md`` extended to the wire.

Every session manager runs on the one node store; the ``backend``
argument accepts only its name (``"array"``, the default) and is
reported in the greeting and in ``stats``.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections.abc import Callable
from io import BufferedIOBase
from typing import Any

from ..bdd.backend import resolve_backend
from ..bdd.governor import ResourceError
from ..bdd.manager import Manager
from ..bdd.sanitize import SanitizerError
from ..store.errors import StoreError
from .protocol import (E_BAD_REQUEST, E_BUDGET, E_INTERNAL,
                       E_OVERLOAD, E_SANITIZER, E_STORE, MAX_LINE,
                       PROTOCOL_VERSION, ProtocolError, decode_line,
                       encode_line, error_response, result_response)
from .scheduler import FairToken
from .session import Session, SessionConfig

__all__ = ["Server", "ServerThread", "serve_main"]

#: Seconds :meth:`Server.close` waits, in all, for connection threads
#: to finish their in-flight request, snapshot and close.
SHUTDOWN_GRACE = 10.0

#: Exceptions a request may raise that map to a structured error code
#: other than ``internal``; the reply's ``kind`` names the class.
#: ``budget`` is the paper's overload contract on the wire: the kernel
#: unwound cleanly, the session (and every handle) is still usable,
#: and re-sending the request retries it.  ``store`` errors leave the
#: session valid too; ``kind`` tells detected corruption
#: (StoreCorruptError) from misuse (unknown name, no store attached).
_ERROR_CODES: tuple[tuple[type[Exception], str], ...] = (
    (ResourceError, E_BUDGET),
    (SanitizerError, E_SANITIZER),
    (StoreError, E_STORE),
)


class _ServerStats:
    """Server-wide counters, guarded by the server's lock."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_rejected = 0
        self.requests = 0
        #: error responses sent, per protocol error code
        self.errors: dict[str, int] = {}
        #: requests dispatched, per verb
        self.verbs: dict[str, int] = {}


class Server:
    """One ``repro serve`` daemon instance (see the module docstring).

    ``backend`` names the node store (only ``"array"``); the other
    parameters mirror the CLI flags: ``cache_limit``/``gc_threshold``
    configure every session manager, ``node_budget``/``step_budget``/
    ``deadline`` are *per-request* budget defaults (each request's
    ``budget`` parameter overrides them), ``workers`` sizes the fair
    token, and ``max_sessions`` bounds concurrent connections (excess
    connects are refused with an ``overload`` error).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 backend: str | None = None,
                 cache_limit: int | None = None,
                 gc_threshold: int | None = None,
                 node_budget: int | None = None,
                 step_budget: int | None = None,
                 deadline: float | None = None,
                 workers: int = 1,
                 max_sessions: int = 64,
                 store: str | None = None,
                 snapshot: bool = False) -> None:
        self.host = host
        self.port = port
        # An unknown store name fails here, at boot: sessions are
        # created at accept time, and a daemon that boots but rejects
        # every connection is strictly worse than one that refuses to
        # start.
        self.backend = resolve_backend(backend)
        # Same fail-fast rule for the persistent store: opening it at
        # boot surfaces a corrupt index immediately instead of on the
        # first save/load request.  The entry count is recorded here,
        # so health never runs sqlite queries.
        self.store = None
        self.store_entries_at_boot = 0
        if store is not None:
            from ..store.store import BDDStore
            self.store = BDDStore(store)
            self.store_entries_at_boot = len(self.store)
        if snapshot and self.store is None:
            raise ValueError("snapshot requires a store directory")
        self.snapshot = snapshot
        # And for the session managers' settings: a manager refuses a
        # bad cache limit or GC threshold, so build one now rather
        # than fail every connection.
        Manager(cache_limit=cache_limit, gc_threshold=gc_threshold)
        self.session_config = SessionConfig(
            backend=self.backend, cache_limit=cache_limit,
            gc_threshold=gc_threshold, node_budget=node_budget,
            step_budget=step_budget, deadline=deadline,
            store=self.store)
        self.workers = workers
        self.max_sessions = max_sessions
        self.stats = _ServerStats()
        self._token = FairToken(workers)
        #: guards the registries below and every counter of ``stats``
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        #: live connections and the threads serving them
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._session_ids = itertools.count(1)
        self._listener: socket.socket | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the listening socket."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port),
                                              family=family)
        self.port = self._listener.getsockname()[1]

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`, one thread each."""
        assert self._listener is not None, "start() first"
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._closing:
                    return
                continue  # the peer gave up before we accepted
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                refused = len(self._connections) >= self.max_sessions
                if refused:
                    self.stats.sessions_rejected += 1
                else:
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn, f"s{next(self._session_ids)}"),
                        name="repro-serve-connection", daemon=True)
                    self._connections[conn] = thread
                    thread.start()
            if refused:
                try:
                    conn.sendall(encode_line(error_response(
                        None, E_OVERLOAD,
                        f"server is at max_sessions={self.max_sessions}")))
                except OSError:
                    pass
                conn.close()

    def close(self) -> None:
        """Stop accepting, hang up every connection, and wait for the
        connection threads to finish.

        Each thread finishes its in-flight request, then (with
        ``snapshot``) persists its session's handles to the store, so
        the next boot can serve them back through ``load`` without
        recomputation, and closes the session.
        """
        with self._lock:
            self._closing = True
            connections = dict(self._connections)
        if self._listener is not None:
            try:  # wakes an accept() blocked on another thread
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        for conn in connections:
            try:  # the connection thread reads end-of-file
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for thread in connections.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Connection handling (one thread per connection)
    # ------------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket,
                          session_id: str) -> None:
        stream = conn.makefile("rwb")
        session: Session | None = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = Session(session_id, self.session_config)
            with self._lock:
                self._sessions[session.id] = session
                self.stats.sessions_opened += 1
            self._converse(session, stream)
        except OSError:  # the peer hung up, or the server is closing
            pass
        finally:
            if session is not None:
                if self.snapshot:
                    try:
                        self._token.run(session.id, session.snapshot_to,
                                        self.store)
                    except Exception:
                        # A failed snapshot (full disk, corrupt store)
                        # must never wedge shutdown; the store's atomic
                        # writes mean a partial snapshot is still a
                        # valid store, just with fewer entries.
                        pass
                # Disconnect-time session GC: the session's handles
                # and, with the last reference, its manager go away.
                session.close()
            with self._lock:
                if session is not None:
                    del self._sessions[session.id]
                    self.stats.sessions_closed += 1
                del self._connections[conn]
            try:
                stream.close()
            except OSError:
                pass
            conn.close()

    def _converse(self, session: Session,
                  stream: BufferedIOBase) -> None:
        """Greet, then answer request lines until end-of-file."""
        stream.write(encode_line({
            "serve": "repro", "protocol": PROTOCOL_VERSION,
            "session": session.id, "backend": self.backend}))
        stream.flush()
        while True:
            line = stream.readline(MAX_LINE + 1)
            if not line:
                return
            if len(line) > MAX_LINE:
                # Oversized line: the stream is unframed beyond
                # recovery, so answer once and hang up.  The rest of
                # the line is read first: closing a socket with unread
                # input resets the connection, which could lose the
                # answer.
                stream.write(encode_line(error_response(
                    None, E_BAD_REQUEST,
                    f"message exceeds {MAX_LINE} bytes")))
                stream.flush()
                while line and not line.endswith(b"\n"):
                    line = stream.readline(MAX_LINE)
                return
            stream.write(self._reply(session, line))
            stream.flush()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _reply(self, session: Session, line: bytes) -> bytes:
        """The encoded response line to one request line."""
        response = self._handle_request(session, line)
        try:
            return encode_line(response)
        except Exception as exc:
            # A result the wire cannot carry (say, a count past the
            # interpreter's int-to-str digit limit): the request
            # fails, the session and connection stay.
            return encode_line(self._error(response["id"], exc))

    def _handle_request(self, session: Session,
                        line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            message = decode_line(line)
            request_id = message.get("id")
            verb = message.get("verb")
            if not isinstance(verb, str) or not verb:
                raise ProtocolError(E_BAD_REQUEST,
                                    "request must name a verb")
            params = message.get("params", {})
            if not isinstance(params, dict):
                raise ProtocolError(E_BAD_REQUEST,
                                    "params must be an object")
            with self._lock:
                self.stats.requests += 1
                self.stats.verbs[verb] = self.stats.verbs.get(verb, 0) + 1
            if verb == "health":
                return result_response(request_id, self._health())
            result = self._token.run(session.id, session.execute,
                                     verb, params)
            if verb == "stats":
                result = {"server": self._server_stats(),
                          "session": result}
            return result_response(request_id, result)
        except Exception as exc:
            return self._error(request_id, exc)

    def _error(self, request_id: Any, exc: Exception) -> dict[str, Any]:
        """Count ``exc`` and build its structured error response."""
        kind: str | None = None
        if isinstance(exc, ProtocolError):
            code, message = exc.code, str(exc)
        else:
            kind = type(exc).__name__
            code = next((mapped for cls, mapped in _ERROR_CODES
                         if isinstance(exc, cls)), E_INTERNAL)
            message = f"{kind}: {exc}" if code == E_INTERNAL else str(exc)
        with self._lock:
            self.stats.errors[code] = self.stats.errors.get(code, 0) + 1
        return error_response(request_id, code, message, kind=kind)

    # ------------------------------------------------------------------
    # Server-level snapshots
    # ------------------------------------------------------------------

    def _health(self) -> dict[str, Any]:
        health = {"status": "ok",
                  "protocol": PROTOCOL_VERSION,
                  "backend": self.backend,
                  "sessions": self.num_sessions,
                  "workers": self.workers,
                  "uptime": time.monotonic() - self.stats.started}
        if self.store is not None:
            health["store"] = str(self.store.root)
            health["store_entries_at_boot"] = \
                self.store_entries_at_boot
        return health

    def _server_stats(self) -> dict[str, Any]:
        stats = self.stats
        with self._lock:
            return {"backend": self.backend,
                    "uptime": time.monotonic() - stats.started,
                    "sessions": {"open": len(self._sessions),
                                 "opened": stats.sessions_opened,
                                 "closed": stats.sessions_closed,
                                 "rejected": stats.sessions_rejected,
                                 "max": self.max_sessions},
                    "requests": stats.requests,
                    "verbs": dict(stats.verbs),
                    "errors": dict(stats.errors),
                    "scheduler": {
                        "workers": self.workers,
                        "dispatched": self._token.dispatched,
                        "pending": self._token.pending()}}


# ----------------------------------------------------------------------
# Embedding helpers (tests, CLI)
# ----------------------------------------------------------------------

def serve_main(server: Server, *,
               ready: Callable[[str], object] = print) -> None:
    """Start ``server`` and serve on this thread until interrupted
    (the CLI body: SIGINT closes the server and returns)."""
    server.start()
    ready(f"repro serve: listening on {server.host}:{server.port} "
          f"(backend={server.backend}, workers={server.workers}, "
          f"max_sessions={server.max_sessions})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


class ServerThread:
    """A server whose accept loop runs on a daemon thread.

    The in-process deployment used by the test suite (and usable as a
    library embedding): ``start()`` returns once the port is bound,
    ``stop()`` closes the server.  Context-manager friendly::

        with ServerThread(backend="array") as handle:
            client = Client(port=handle.port)
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self.server: Server | None = None
        self.port: int | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServerThread":
        self.server = Server(**self._kwargs)
        self.server.start()
        self.port = self.server.port
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="repro-serve-accept",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self.server is not None:
            self.server.close()
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
