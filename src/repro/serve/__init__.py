"""``repro serve``: a long-lived BDD service daemon.

The interactive face of the paper: a server owning per-session BDD
managers, so a larger tool can approximate or decompose functions
*while* its own verification task runs, trading precision for space on
demand — with the PR 5 resource governor as the overload mechanism and
structured ``budget`` errors instead of dead connections.

Modules
-------
:mod:`repro.serve.protocol`
    Newline-delimited JSON framing, error codes.
:mod:`repro.serve.scheduler`
    The fair round-robin execution token.
:mod:`repro.serve.session`
    Per-client manager, handle table, and the verb implementations.
:mod:`repro.serve.server`
    The thread-per-connection server, stats/health, and
    :class:`ServerThread` for in-process embedding.
:mod:`repro.serve.client`
    The synchronous :class:`Client` used by ``repro call`` and tests.

See ``docs/serve.md`` for the protocol and operational semantics.
"""

from .client import Client, ClientTimeout, ServerError
from .protocol import (MAX_LINE, PROTOCOL_VERSION, ProtocolError,
                       decode_line, encode_line)
from .scheduler import FairToken
from .server import Server, ServerThread, serve_main
from .session import Session, SessionConfig

__all__ = [
    "Client",
    "ClientTimeout",
    "ServerError",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "MAX_LINE",
    "encode_line",
    "decode_line",
    "FairToken",
    "Server",
    "ServerThread",
    "serve_main",
    "Session",
    "SessionConfig",
]
