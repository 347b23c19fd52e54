"""Shared test utilities: random functions, brute-force oracles."""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from typing import Any

import pytest

from repro.bdd import Function, Manager
from repro.fsm.am2910 import am2910
from repro.fsm.benchmarks import counter, shift_queue, token_ring
from repro.store.format import content_address, encode_roots

#: Manager settings the store-level tests run under, keyed by test id.
#: ``array`` is a default manager.  ``object`` bounds the computed
#: table to 64 buckets and arms garbage collection at 256 nodes, so the
#: same test also runs with constant cache evictions and with the sweep
#: recycling node ids; no result may depend on either.  The ids are the
#: names of the two node stores these tests once ran on, kept so that
#: the test names stay stable.
MANAGER_SETTINGS: dict[str, dict[str, int]] = {
    "object": {"cache_limit": 64, "gc_threshold": 256},
    "array": {},
}

#: The test ids of :data:`MANAGER_SETTINGS`, for ``parametrize``.
SETTINGS = list(MANAGER_SETTINGS)

#: Circuits on which the exact traversals must match reference loops
#: that image the raw frontier.
TRAVERSAL_CIRCUITS = [
    pytest.param(lambda: counter(5), id="counter5"),
    pytest.param(lambda: token_ring(3), id="token_ring3"),
    pytest.param(lambda: shift_queue(3, 2), id="shift_queue3x2"),
    pytest.param(lambda: am2910(3, 2), id="am2910_3x2"),
]


def fresh_manager(nvars: int, prefix: str = "x", **settings: Any
                  ) -> tuple[Manager, list[Function]]:
    """A manager with ``nvars`` variables ``x0..`` and ``settings``."""
    manager = Manager(**settings)
    variables = manager.add_vars(*[f"{prefix}{i}" for i in range(nvars)])
    return manager, variables


def settings_manager(setting: str, vars: Iterable[str] = ()) -> Manager:
    """A fresh manager with the settings of test id ``setting``."""
    return Manager(vars, **MANAGER_SETTINGS[setting])


def store_digest(function: Function) -> str:
    """The store content address of ``function`` alone.

    Two functions share it exactly when they are the same function over
    the same variable names in the same relative order, whichever
    managers hold them.
    """
    return content_address(encode_roots(function.manager,
                                        {"f": function}))


def random_function(manager: Manager, variables: list[Function],
                    rng: random.Random, terms: int = 8,
                    width: int = 3) -> Function:
    """A random DNF over the given variables."""
    acc = manager.false
    width = min(width, len(variables))
    for _ in range(terms):
        cube = manager.true
        for variable in rng.sample(variables, width):
            cube = cube & (variable if rng.random() < 0.5 else ~variable)
        acc = acc | cube
    return acc


def truth_table(function: Function, names: list[str]) -> list[bool]:
    """Exhaustive evaluation over the named variables (small n only)."""
    n = len(names)
    return [function(**{names[i]: bool(k >> i & 1) for i in range(n)})
            for k in range(1 << n)]


def assert_equal_semantics(f: Function, oracle: Callable[..., bool],
                           names: list[str]) -> None:
    """Check a BDD against a Python oracle on the full truth table."""
    n = len(names)
    for k in range(1 << n):
        assignment = {names[i]: bool(k >> i & 1) for i in range(n)}
        assert f(**assignment) == oracle(**assignment), assignment


def record_operands(tr, method: str) -> list[int]:
    """Wrap ``tr.<method>`` (``image`` or ``preimage``) to record the
    node count of every operand it receives."""
    sizes: list[int] = []
    original = getattr(tr, method)

    def wrapped(states, *args, **kwargs):
        sizes.append(len(states))
        return original(states, *args, **kwargs)

    setattr(tr, method, wrapped)
    return sizes


def raw_frontier_traversal(step, start: Function):
    """Reference exact fixpoint that applies ``step`` (a transition
    relation's ``image`` or ``preimage``) to the raw frontier.

    Returns ``(reached, iterations, size_trace, frontier_trace)``.
    """
    reached = frontier = start
    iterations = 0
    size_trace, frontier_trace = [len(reached)], [len(frontier)]
    while not frontier.is_false:
        frontier = step(frontier) - reached
        reached = reached | frontier
        iterations += 1
        size_trace.append(len(reached))
        frontier_trace.append(len(frontier))
    return reached, iterations, size_trace, frontier_trace
