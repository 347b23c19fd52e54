"""The wire protocol of ``repro serve``: newline-delimited JSON.

One TCP connection is one *session*.  On accept the server sends a
greeting line, then the client sends one request per line and receives
exactly one response per request, in order::

    S> {"serve": "repro", "protocol": 1, "session": "s1",
        "backend": "array"}
    C> {"id": 1, "verb": "var", "params": {"name": "a"}}
    S> {"id": 1, "ok": true, "result": {"handle": "h1", ...}}
    C> {"id": 2, "verb": "apply",
        "params": {"op": "and", "f": "h1", "g": "h1"}}
    S> {"id": 2, "ok": true, "result": {"handle": "h1", ...}}

Every message is a single line of UTF-8 JSON terminated by ``\\n``
(:data:`MAX_LINE` bytes at most).  Requests carry:

``id``
    Echoed verbatim into the response; any JSON scalar.
``verb``
    The operation name (see ``docs/serve.md`` for the verb table).
``params``
    Verb arguments, an object (optional — defaults to ``{}``).  The
    reserved key ``budget`` — ``{"node": N, "step": N, "deadline": S}``
    — arms a per-request resource budget on the session's manager.

Responses are either results or *structured errors*::

    {"id": 1, "ok": false,
     "error": {"code": "budget", "kind": "BudgetExceeded",
               "message": "step budget 100 exceeded ..."}}

Error codes are the :data:`E_...` constants below.  A ``budget`` error
is a *normal* outcome: the kernels unwound cleanly, the session and all
its handles stay valid, and the same request can simply be re-sent
(possibly with a larger budget).  Only framing violations (a line
exceeding :data:`MAX_LINE`) close the connection.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE",
    "E_BAD_REQUEST",
    "E_UNKNOWN_VERB",
    "E_BAD_HANDLE",
    "E_BUDGET",
    "E_SANITIZER",
    "E_STORE",
    "E_OVERLOAD",
    "E_INTERNAL",
    "ProtocolError",
    "encode_line",
    "decode_line",
    "result_response",
    "error_response",
]

#: Bumped on incompatible wire changes; the greeting advertises it.
PROTOCOL_VERSION = 1

#: Hard bound on one message line in bytes (requests and responses).
#: Protects the server from unbounded buffering on a misbehaving peer.
MAX_LINE = 8 * 1024 * 1024

# -- error codes -------------------------------------------------------
#: Malformed JSON, missing/invalid fields, bad parameter values.
E_BAD_REQUEST = "bad-request"
#: The verb is not in the session's dispatch table.
E_UNKNOWN_VERB = "unknown-verb"
#: A function handle that does not (or no longer does) exist.
E_BAD_HANDLE = "bad-handle"
#: A governor abort: node/step budget, deadline, or injected fault.
#: The session survives; re-send the request to retry.
E_BUDGET = "budget"
#: The graph sanitizer found a structural invariant violation.
E_SANITIZER = "sanitizer"
#: A persistent-store failure on ``save``/``load``: unknown name, no
#: store attached at boot, or detected corruption (``kind`` then names
#: ``StoreCorruptError``).  The session survives.
E_STORE = "store"
#: The server is at ``max_sessions``; retry later.
E_OVERLOAD = "overload"
#: Any unexpected server-side exception.
E_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A request the server understands well enough to reject.

    Raised by request parsing and by verb implementations; the server
    maps it to a structured error response carrying :attr:`code`, and
    the connection stays open.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode_line(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a terminated wire line."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a message object.

    Raises :class:`ProtocolError` (``bad-request``) on malformed JSON
    or a non-object payload.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(E_BAD_REQUEST, f"malformed JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(E_BAD_REQUEST,
                            "message must be a JSON object")
    return message


def result_response(request_id: Any, result: dict[str, Any]
                    ) -> dict[str, Any]:
    """Build a success response for ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str,
                   kind: str | None = None) -> dict[str, Any]:
    """Build a structured error response for ``request_id``.

    ``kind`` carries the server-side exception class name when one
    maps onto the code (e.g. ``BudgetExceeded`` vs ``InjectedAbort``
    under ``budget``), letting clients distinguish without parsing
    message text.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if kind is not None:
        error["kind"] = kind
    return {"id": request_id, "ok": False, "error": error}
