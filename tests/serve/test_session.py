"""A session belongs to the thread that created it."""

from __future__ import annotations

import threading

import pytest

from repro.serve.session import Session, SessionConfig
from repro.store import BDDStore


@pytest.mark.parametrize("use", [
    lambda session, store: session.execute("var", {"name": "a"}),
    lambda session, store: session.snapshot_to(store),
    lambda session, store: session.manager,
], ids=["execute", "snapshot_to", "manager"])
def test_other_threads_are_refused(use, tmp_path):
    store = BDDStore(tmp_path / "store")
    session = Session("s1", SessionConfig(store=store))
    raised: list[BaseException] = []

    def drive() -> None:
        try:
            use(session, store)
        except BaseException as exc:  # checked by the main thread
            raised.append(exc)

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(raised) == 1 and isinstance(raised[0], RuntimeError)
    assert "session s1" in str(raised[0])
    use(session, store)  # the creating thread drives it as before
