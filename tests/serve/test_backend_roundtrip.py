"""The store name round-trips through a real ``repro serve`` subprocess.

The greeting, the server's ``stats`` and every session manager's stats
name the one node store; the retired ``REPRO_BACKEND`` variable has no
effect.  The session's manager stats report the *actual* store, so the
assertions reach the bottom layer.
"""

from __future__ import annotations

from repro.serve import Client

from .conftest import serve_subprocess


def _observed_backends(port):
    """(greeting, server-stats, live-session-store) backend tags."""
    with Client(port=port) as client:
        client.var("a")  # force real store activity
        stats = client.stats()
        return (client.greeting["backend"],
                stats["server"]["backend"],
                stats["session"]["manager"]["backend"])


def test_banner_reports_resolved_backend():
    with serve_subprocess(env={"REPRO_BACKEND": "object"}) as (_proc,
                                                                port):
        # Every new session agrees with the first.
        first = _observed_backends(port)
        second = _observed_backends(port)
        assert first == second == ("array",) * 3
