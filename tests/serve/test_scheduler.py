"""Unit tests for the fair execution token.

The two properties the server depends on: per-session serialization
(managers are not thread-safe) and round-robin fairness (a bursty
session cannot starve the others).  Every call runs on its caller's
thread, as a connection thread runs its session's verbs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.scheduler import FairToken


def _wait_for(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.001)


def _start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _join(threads, timeout=10.0):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)


def test_submit_returns_result():
    token = FairToken()
    assert token.run("s1", lambda: 41 + 1) == 42


def test_submit_with_args():
    token = FairToken()
    assert token.run("s1", lambda a, b: a * b, 6, 7) == 42


def test_call_runs_on_the_calling_thread():
    token = FairToken()
    assert token.run("s1", threading.get_ident) == threading.get_ident()


def test_exception_propagates_to_caller():
    def boom():
        raise ValueError("kaboom")

    token = FairToken()
    with pytest.raises(ValueError, match="kaboom"):
        token.run("s1", boom)
    # The failing call handed its permit back.
    assert token.run("s1", lambda: "ok") == "ok"


def test_round_robin_burst_cannot_starve_other_session():
    """With 1 permit: A runs a burst of calls, then B sends one call.

    A connection thread sends its session's calls one after another;
    round-robin means B's call runs on the very next turn, not after
    A's whole burst.
    """
    token = FairToken(workers=1)
    order = []
    gate = threading.Event()
    holding = threading.Event()

    def work(tag):
        holding.set()
        gate.wait(5)
        order.append(tag)

    def burst():
        for i in range(10):
            token.run("A", work, f"A{i}")

    # A's first call holds the permit, so B queues behind it.
    threads = [_start(burst)]
    assert holding.wait(5)
    threads.append(_start(token.run, "B", work, "B0"))
    _wait_for(lambda: token.pending("B") == 1, what="B queued")
    gate.set()
    _join(threads)
    assert len(order) == 11
    # B0 ran second or third: immediately after whichever A call held
    # the permit when B arrived (never behind the full burst).
    assert "B0" in order[:3], order
    assert order.index("B0") < order.index("A5"), order


def test_waiting_sessions_take_turns():
    """Three sessions in bursts share 1 permit in strict rotation."""
    token = FairToken(workers=1)
    order = []
    gate = threading.Event()
    holding = threading.Event()

    def work(tag):
        holding.set()
        gate.wait(5)
        order.append(tag)

    def burst(key):
        for _ in range(4):
            token.run(key, work, key)

    threads = [_start(burst, "A")]
    assert holding.wait(5)
    threads.append(_start(burst, "B"))
    _wait_for(lambda: token.pending() == 1, what="B queued")
    threads.append(_start(burst, "C"))
    _wait_for(lambda: token.pending() == 2, what="C queued")
    gate.set()
    _join(threads)
    assert "".join(order) == "ABCABCABCABC"


def test_per_session_calls_run_in_submission_order():
    """Callers of one session are granted the permit in arrival order."""
    token = FairToken(workers=4)
    order = []
    gate = threading.Event()
    running = threading.Event()

    def work(i):
        if i == 0:
            running.set()
            gate.wait(5)
        order.append(i)

    threads = [_start(token.run, "s", work, 0)]
    assert running.wait(5)
    for i in range(1, 20):
        threads.append(_start(token.run, "s", work, i))
        _wait_for(lambda: token.pending("s") == i, what=f"call {i}")
    gate.set()
    _join(threads)
    assert order == list(range(20))


def test_per_session_serialization_under_many_workers():
    """At most one call of a session runs at any moment."""
    token = FairToken(workers=4)
    active = 0
    peak = 0
    lock = threading.Lock()

    def work():
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.002)
        with lock:
            active -= 1

    _join([_start(token.run, "only", work) for _ in range(25)])
    assert peak == 1
    assert token.dispatched == 25


def test_distinct_sessions_do_run_concurrently():
    token = FairToken(workers=2)
    both = threading.Barrier(2, timeout=5)
    passed = []

    def work():
        both.wait()  # only passes if the two calls overlap
        passed.append(True)

    _join([_start(token.run, key, work) for key in ("a", "b")])
    assert passed == [True, True]


def test_dispatched_counts_completed_calls():
    token = FairToken()
    for _ in range(5):
        token.run("s", lambda: None)
    assert token.dispatched == 5
    assert token.pending() == 0


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        FairToken(workers=0)
