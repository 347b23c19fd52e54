"""Synchronous client for the ``repro serve`` protocol.

A :class:`Client` is a thin blocking wrapper over one TCP connection —
one session.  It is what ``repro call`` and the test suites use; it
deliberately knows nothing about BDDs: handles are opaque strings, and
every result is the server's JSON object verbatim.

>>> with Client(port=port) as c:           # doctest: +SKIP
...     a = c.var("a")
...     b = c.var("b")
...     f = c.apply("and", a, b)
...     c.count(f)["sat_count"]
1

Error responses raise :class:`ServerError` carrying the structured
``code``/``kind``; a ``budget`` error leaves the connection usable, so
callers can re-issue the request (see ``docs/serve.md``).
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any

from .protocol import E_BUDGET, MAX_LINE

__all__ = ["Client", "ClientTimeout", "ServerError"]


class ClientTimeout(ConnectionError):
    """The server did not answer within the client's read timeout.

    Raised instead of a bare ``socket.timeout`` so callers can tell a
    hung (or overloaded) server from a closed connection; the
    connection is in an undefined protocol state afterwards — close it
    and reconnect rather than re-issuing the request.
    """

    def __init__(self, seconds: float | None) -> None:
        bound = "" if seconds is None else f" after {seconds:g}s"
        super().__init__(f"no response from the server{bound}")
        self.seconds = seconds


class ServerError(RuntimeError):
    """A structured error response from the server."""

    def __init__(self, code: str, message: str,
                 kind: str | None = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.kind = kind

    @property
    def is_budget(self) -> bool:
        """True for governor aborts (the session stays usable)."""
        return self.code == E_BUDGET


class Client:
    """One blocking protocol session (see the module docstring).

    ``connect_timeout`` bounds the whole connection attempt; the
    constructor retries refused connections until it elapses, so a
    client racing a just-forked ``repro serve`` subprocess simply
    waits for the socket to appear.

    ``read_timeout`` bounds every wait for a response line (defaulting
    to ``timeout``); a server that accepted the request but never
    answers raises :class:`ClientTimeout` instead of blocking the
    caller forever.  ``None`` disables the bound — appropriate for
    long ``reach`` traversals whose runtime is governed server-side by
    per-request budgets instead.

    Every request is sent once: an error response raises
    :class:`ServerError`, and a refused connection (an ``overload``
    greeting) raises it from the constructor.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float | None = 60.0,
                 connect_timeout: float = 10.0,
                 read_timeout: float | None = None) -> None:
        self.host = host
        self.port = port
        self.read_timeout = timeout if read_timeout is None \
            else read_timeout
        self._connect(timeout, connect_timeout)
        try:
            self.greeting = self._read_message()
        except BaseException:
            self.close()
            raise
        if self.greeting.get("ok") is False:
            error = self.greeting.get("error", {})
            self.close()
            raise ServerError(error.get("code", "internal"),
                              error.get("message", "rejected"),
                              error.get("kind"))
        #: server-assigned session id (from the greeting line)
        self.session = self.greeting.get("session")

    def _connect(self, timeout: float | None,
                 connect_timeout: float) -> None:
        deadline = time.monotonic() + connect_timeout
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=timeout)
                break
            except ConnectionRefusedError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self._sock.settimeout(self.read_timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = iter(range(1, 1 << 62))

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _read_message(self) -> dict[str, Any]:
        try:
            line = self._file.readline(MAX_LINE + 1)
        except TimeoutError:
            raise ClientTimeout(self.read_timeout) from None
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def call(self, verb: str, params: dict[str, Any] | None = None,
             *, budget: dict[str, Any] | None = None
             ) -> dict[str, Any]:
        """Send one request and return the ``result`` object.

        ``budget`` is the per-request governor budget
        (``{"node": N, "step": N, "deadline": S}``).  Raises
        :class:`ServerError` on an error response.
        """
        request_id = next(self._ids)
        payload: dict[str, Any] = dict(params or {})
        if budget is not None:
            payload["budget"] = budget
        request = {"id": request_id, "verb": verb, "params": payload}
        self._file.write(json.dumps(request).encode("utf-8") + b"\n")
        self._file.flush()
        response = self._read_message()
        if response.get("id") != request_id:
            raise ConnectionError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}")
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServerError(error.get("code", "internal"),
                              error.get("message", "unknown error"),
                              error.get("kind"))
        return response["result"]

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Verb conveniences (return the interesting slice of the result)
    # ------------------------------------------------------------------

    def var(self, name: str, **kwargs: Any) -> str:
        return self.call("var", {"name": name}, **kwargs)["handle"]

    def apply(self, op: str, f: str, g: str | None = None,
              **kwargs: Any) -> Any:
        params: dict[str, Any] = {"op": op, "f": f}
        if g is not None:
            params["g"] = g
        result = self.call("apply", params, **kwargs)
        return result["value"] if op == "leq" else result["handle"]

    def ite(self, f: str, g: str, h: str, **kwargs: Any) -> str:
        return self.call("ite", {"f": f, "g": g, "h": h},
                         **kwargs)["handle"]

    def approx(self, method: str, f: str, threshold: int = 0,
               **kwargs: Any) -> dict[str, Any]:
        return self.call("approx", {"method": method, "f": f,
                                    "threshold": threshold}, **kwargs)

    def decomp(self, method: str, f: str,
               **kwargs: Any) -> dict[str, Any]:
        return self.call("decomp", {"method": method, "f": f},
                         **kwargs)

    def count(self, f: str, nvars: int | None = None,
              **kwargs: Any) -> dict[str, Any]:
        params: dict[str, Any] = {"f": f}
        if nvars is not None:
            params["nvars"] = nvars
        return self.call("count", params, **kwargs)

    def minterms(self, f: str, names: list[str] | None = None,
                 **kwargs: Any) -> list[dict[str, bool]]:
        params: dict[str, Any] = {"f": f}
        if names is not None:
            params["names"] = names
        return self.call("minterms", params, **kwargs)["minterms"]

    def check(self, **kwargs: Any) -> dict[str, Any]:
        return self.call("check", **kwargs)

    def release(self, f: str, **kwargs: Any) -> bool:
        return self.call("release", {"f": f}, **kwargs)["released"]

    def reach(self, blif: str, **params: Any) -> dict[str, Any]:
        budget = params.pop("budget", None)
        return self.call("reach", {"blif": blif, **params},
                         budget=budget)

    def stats(self) -> dict[str, Any]:
        return self.call("stats")

    def health(self) -> dict[str, Any]:
        return self.call("health")
