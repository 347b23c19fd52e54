"""The ``repro serve`` daemon: asyncio transport over the fair pool.

Layering (transport down to kernels)::

    asyncio event loop          one task per connection, NDJSON framing
      Server                    session registry, stats/health, errors
        FairExecutor            round-robin worker threads
          Session               per-client Manager + handle table
            Manager/kernels     the ordinary repro.bdd machinery

The event loop only parses and frames; every kernel call runs on a
:class:`~repro.serve.scheduler.FairExecutor` worker thread, one call
per session at a time, round-robin across sessions.  Exceptions map to
the structured error codes of :mod:`repro.serve.protocol` — a governor
abort (:class:`~repro.bdd.governor.ResourceError`) becomes a ``budget``
error response on a connection that *stays open*, which is the
degradation contract of ``docs/robustness.md`` extended to the wire.

Every session manager runs on the one node store; the ``backend``
argument accepts only its name (``"array"``, the default) and is
reported in the greeting and in ``stats``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections.abc import Callable
from typing import Any

from ..bdd.backend import resolve_backend
from ..bdd.governor import ResourceError
from ..bdd.sanitize import SanitizerError
from ..store.errors import StoreError
from .protocol import (E_BAD_REQUEST, E_BUDGET, E_INTERNAL,
                       E_OVERLOAD, E_SANITIZER, E_STORE, MAX_LINE,
                       PROTOCOL_VERSION, ProtocolError, decode_line,
                       encode_line, error_response, result_response)
from .scheduler import FairExecutor
from .session import Session, SessionConfig

__all__ = ["Server", "ServerThread", "serve_main"]


class _ServerStats:
    """Mutable server-wide counters (event-loop-thread only)."""

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
        #: governor counters accumulated from *closed* sessions
        self.closed_aborts = 0
        self.closed_degradations = 0

    def count_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1

    def count_verb(self, verb: str) -> None:
        self.requests += 1
        self.verbs[verb] = self.verbs.get(verb, 0) + 1


class Server:
    """One ``repro serve`` daemon instance (see the module docstring).

    ``backend`` names the node store (only ``"array"``); the other
    parameters mirror the CLI flags: ``cache_limit``/``gc_threshold``
    configure every session manager, ``node_budget``/``step_budget``/
    ``deadline`` are *per-request* budget defaults (each request's
    ``budget`` parameter overrides them), ``workers`` sizes the fair
    executor, and ``max_sessions`` bounds concurrent connections
    (excess connects are refused with an ``overload`` error).
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
        # first save/load request.  The entry count is recorded here —
        # _health() must not run sqlite queries on the event loop.
        self.store = None
        self.store_entries_at_boot = 0
        if store is not None:
            from ..store.store import BDDStore
            self.store = BDDStore(store)
            self.store_entries_at_boot = len(self.store)
        if snapshot and self.store is None:
            raise ValueError("snapshot requires a store directory")
        self.snapshot = snapshot
        self.session_config = SessionConfig(
            backend=self.backend, cache_limit=cache_limit,
            gc_threshold=gc_threshold, node_budget=node_budget,
            step_budget=step_budget, deadline=deadline,
            store=self.store)
        self.workers = workers
        self.max_sessions = max_sessions
        self.stats = _ServerStats()
        self._sessions: dict[str, Session] = {}
        self._session_ids = itertools.count(1)
        self._executor: FairExecutor | None = None
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the worker pool."""
        self._executor = FairExecutor(workers=self.workers)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drop sessions, stop the workers.

        With ``snapshot`` enabled, every live session's handles are
        persisted to the store first (on the fair executor — the
        manager is worker-thread-affine), so the next boot can serve
        them back through ``load`` without recomputation.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.snapshot and self.store is not None \
                and self._executor is not None:
            for session in list(self._sessions.values()):
                future = self._executor.submit(
                    session.id, session.snapshot_to, self.store)
                try:
                    await asyncio.wrap_future(future)
                except Exception:
                    # A failed snapshot (full disk, corrupt store)
                    # must never wedge shutdown; the store's atomic
                    # writes mean a partial snapshot is still a valid
                    # store, just with fewer entries.
                    pass
        for session_id in list(self._sessions):
            self._close_session(session_id)
        if self._executor is not None:
            # shutdown() joins worker threads — a blocking wait that
            # must not stall the event loop (RPR007), so hand it to the
            # default thread-pool executor.
            await asyncio.to_thread(self._executor.shutdown)

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        if len(self._sessions) >= self.max_sessions:
            self.stats.sessions_rejected += 1
            writer.write(encode_line(error_response(
                None, E_OVERLOAD,
                f"server is at max_sessions={self.max_sessions}")))
            await _drain_and_close(writer)
            return
        session = Session(f"s{next(self._session_ids)}",
                          self.session_config)
        self._sessions[session.id] = session
        self.stats.sessions_opened += 1
        writer.write(encode_line({
            "serve": "repro", "protocol": PROTOCOL_VERSION,
            "session": session.id, "backend": self.backend}))
        try:
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: the stream is unframed beyond
                    # recovery, so answer once and hang up.
                    writer.write(encode_line(error_response(
                        None, E_BAD_REQUEST,
                        f"message exceeds {MAX_LINE} bytes")))
                    break
                if not line:
                    break
                response = await self._handle_request(session, line)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._close_session(session.id)
            await _drain_and_close(writer)

    def _close_session(self, session_id: str) -> None:
        """Disconnect-time session GC (idempotent)."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        if self._executor is not None:
            self._executor.remove_session(session_id)
        aborts, degradations = session.close()
        self.stats.sessions_closed += 1
        self.stats.closed_aborts += aborts
        self.stats.closed_degradations += degradations

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _handle_request(self, session: Session,
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
            self.stats.count_verb(verb)
            if verb == "health":
                return result_response(request_id, self._health())
            result = await self._dispatch(session, verb, params)
            if verb == "stats":
                result = {"server": self._server_stats(),
                          "session": result}
            return result_response(request_id, result)
        except ProtocolError as exc:
            self.stats.count_error(exc.code)
            return error_response(request_id, exc.code, str(exc))
        except ResourceError as exc:
            # The paper's overload contract on the wire: the kernel
            # unwound cleanly, the session (and every handle) is still
            # usable, and re-sending the request retries it.
            self.stats.count_error(E_BUDGET)
            return error_response(request_id, E_BUDGET, str(exc),
                                  kind=type(exc).__name__)
        except SanitizerError as exc:
            self.stats.count_error(E_SANITIZER)
            return error_response(request_id, E_SANITIZER, str(exc),
                                  kind=type(exc).__name__)
        except StoreError as exc:
            # save/load failures are structured, not internal: the
            # session and its handles stay valid, and the kind field
            # distinguishes detected corruption (StoreCorruptError)
            # from misuse (unknown name, no store attached).
            self.stats.count_error(E_STORE)
            return error_response(request_id, E_STORE, str(exc),
                                  kind=type(exc).__name__)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.stats.count_error(E_INTERNAL)
            return error_response(request_id, E_INTERNAL,
                                  f"{type(exc).__name__}: {exc}",
                                  kind=type(exc).__name__)

    async def _dispatch(self, session: Session, verb: str,
                        params: dict[str, Any]) -> dict[str, Any]:
        """Run a session verb on the fair executor and await it."""
        assert self._executor is not None, "start() first"
        future = self._executor.submit(session.id, session.execute,
                                       verb, params)
        return await asyncio.wrap_future(future)

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
        # Aggregate governor counters over live sessions too, so the
        # snapshot reflects aborts/degradations of still-connected
        # clients (the CI artifact reads this).  Sessions *publish*
        # these as plain ints after every request precisely so this
        # event-loop read never touches a worker-owned manager
        # (RPR008: the manager is thread-affine to the fair executor).
        aborts = stats.closed_aborts
        degradations = stats.closed_degradations
        for session in list(self._sessions.values()):
            aborts += session.published_aborts
            degradations += session.published_degradations
        executor = self._executor
        return {"backend": self.backend,
                "uptime": time.monotonic() - stats.started,
                "sessions": {"open": self.num_sessions,
                             "opened": stats.sessions_opened,
                             "closed": stats.sessions_closed,
                             "rejected": stats.sessions_rejected,
                             "max": self.max_sessions},
                "requests": stats.requests,
                "verbs": dict(stats.verbs),
                "errors": dict(stats.errors),
                "aborts": aborts,
                "degradations": degradations,
                "scheduler": {
                    "workers": self.workers,
                    "dispatched": (executor.dispatched
                                   if executor else 0),
                    "pending": (executor.pending()
                                if executor else 0)}}


async def _drain_and_close(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, asyncio.CancelledError):
        pass


# ----------------------------------------------------------------------
# Embedding helpers (tests, CLI)
# ----------------------------------------------------------------------

async def serve_main(server: Server, *,
                     ready: Callable[[str], object] = print) -> None:
    """Start ``server`` and run until cancelled (the CLI body)."""
    await server.start()
    ready(f"repro serve: listening on {server.host}:{server.port} "
          f"(backend={server.backend}, workers={server.workers}, "
          f"max_sessions={server.max_sessions})")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()


class ServerThread:
    """A server running on a private event loop in a daemon thread.

    The in-process deployment used by the test suite (and usable as a
    library embedding): ``start()`` blocks until the port is bound,
    ``stop()`` tears the loop down.  Context-manager friendly::

        with ServerThread(backend="array") as handle:
            client = Client(port=handle.port)
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self.server: Server | None = None
        self.port: int | None = None
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = None
        self._error: BaseException | None = None

    def start(self) -> "ServerThread":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-thread",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("server thread failed to start")
        if self._error is not None:
            raise RuntimeError(
                f"server failed to boot: {self._error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - boot errors
            self._error = exc
        finally:
            assert self._started is not None
            self._started.set()

    async def _main(self) -> None:
        server = Server(**self._kwargs)
        await server.start()
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        assert self._started is not None
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await server.aclose()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
