"""Differential concurrency suite: daemon vs inline-manager oracle.

N concurrent client sessions replay randomized op scripts against the
server while the same scripts run on inline same-seed ``Manager``
oracles.  Agreement must be *exact* — node counts, satisfying-set
counts, and full minterm enumerations — per session, at concurrency
1, 2, and 8, under both test manager settings.  Any cross-session
interference (shared state, mis-scheduled kernel calls, handle-table
leaks between sessions) breaks exactness immediately.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.approx import UNDER_APPROXIMATORS
from repro.core.decomp import decompose
from repro.serve import Client

from ..helpers import MANAGER_SETTINGS, SETTINGS, settings_manager

NVARS = 8
NAMES = [f"v{i}" for i in range(NVARS)]
SCRIPT_STEPS = 24
APPLY_OPS = ("and", "or", "xor", "nand", "imp", "diff")
APPROX_METHODS = ("hb", "sp", "ua")
DECOMP_METHODS = ("cofactor", "disjoint")


def make_script(seed):
    """A randomized op script: list of (op, args...) tuples.

    Arguments index a growing pool of functions; the pool starts as
    the ``NVARS`` variables, and every step appends one function, so
    index validity is script-intrinsic (engine-independent).
    """
    rng = random.Random(seed)
    script = []
    pool_size = NVARS
    for _ in range(SCRIPT_STEPS):
        pick = rng.random()
        i = rng.randrange(pool_size)
        j = rng.randrange(pool_size)
        if pick < 0.45:
            script.append(("apply", rng.choice(APPLY_OPS), i, j))
        elif pick < 0.60:
            script.append(("not", i))
        elif pick < 0.75:
            script.append(("ite", i, j, rng.randrange(pool_size)))
        elif pick < 0.90:
            script.append(("approx", rng.choice(APPROX_METHODS), i,
                           rng.randrange(2, 9)))
        else:
            script.append(("decomp", rng.choice(DECOMP_METHODS), i))
        pool_size += 1
    return script


class RemoteEngine:
    """Replays a script through one daemon session."""

    def __init__(self, port):
        self.client = Client(port=port)
        self.pool = [self.client.var(name) for name in NAMES]

    def step(self, op, *args):
        c = self.client
        if op == "apply":
            tag, i, j = args
            result = c.call("apply", {"op": tag, "f": self.pool[i],
                                      "g": self.pool[j]})
        elif op == "not":
            result = c.call("apply", {"op": "not",
                                      "f": self.pool[args[0]]})
        elif op == "ite":
            i, j, k = args
            result = c.call("ite", {"f": self.pool[i],
                                    "g": self.pool[j],
                                    "h": self.pool[k]})
        elif op == "approx":
            method, i, threshold = args
            result = c.approx(method, self.pool[i],
                              threshold=threshold)
        else:
            method, i = args
            result = c.decomp(method, self.pool[i])["g"]
        self.pool.append(result["handle"])
        counts = c.count(result["handle"], nvars=NVARS)
        return (counts["nodes"], str(counts["sat_count"]))

    def minterms(self, index):
        return self.client.minterms(self.pool[index], names=NAMES)

    def close(self):
        self.client.close()


class OracleEngine:
    """Replays a script on a dedicated inline manager."""

    def __init__(self, setting):
        self.manager = settings_manager(setting)
        self.pool = [self.manager.add_var(name) for name in NAMES]

    def step(self, op, *args):
        if op == "apply":
            tag, i, j = args
            f = self.manager.apply(tag, self.pool[i], self.pool[j])
        elif op == "not":
            f = ~self.pool[args[0]]
        elif op == "ite":
            i, j, k = args
            f = self.pool[i].ite(self.pool[j], self.pool[k])
        elif op == "approx":
            method, i, threshold = args
            f = UNDER_APPROXIMATORS[method](self.pool[i],
                                            threshold=threshold)
        else:
            method, i = args
            f, _ = decompose(self.pool[i], method)
        self.pool.append(f)
        return (len(f), str(f.sat_count(NVARS)))

    def minterms(self, index):
        return [dict(m)
                for m in self.pool[index].iter_minterms(NAMES)]

    def close(self):
        pass


def replay(engine, script):
    """Run a script and return its full observation trace."""
    try:
        observations = [engine.step(*entry) for entry in script]
        # Exact semantics witness: full minterm enumerations of the
        # last few pool entries (node/sat counts alone could collide).
        tails = [engine.minterms(index) for index in (-1, -2, -3)]
        return observations, tails
    finally:
        engine.close()


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("concurrency", (1, 2, 8))
def test_differential_replay(server_factory, setting, concurrency):
    server = server_factory(**MANAGER_SETTINGS[setting], workers=2,
                            max_sessions=concurrency + 2)
    seeds = [9000 + 17 * s for s in range(concurrency)]
    scripts = {seed: make_script(seed) for seed in seeds}

    # Oracle traces, inline, sequential.
    expected = {seed: replay(OracleEngine(setting), scripts[seed])
                for seed in seeds}

    # Remote traces, one thread per session, concurrently.
    def remote(seed):
        return replay(RemoteEngine(server.port), scripts[seed])

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        futures = {seed: pool.submit(remote, seed) for seed in seeds}
        actual = {seed: future.result(timeout=300)
                  for seed, future in futures.items()}

    for seed in seeds:
        exp_obs, exp_tails = expected[seed]
        act_obs, act_tails = actual[seed]
        for step, (exp, act) in enumerate(zip(exp_obs, act_obs)):
            assert exp == act, (
                f"seed {seed} diverged at step {step} "
                f"({scripts[seed][step]}): oracle {exp}, daemon {act}")
        assert act_tails == exp_tails, f"seed {seed} minterms diverged"

    # Every session was really served and independently GC-ed.
    stats = server.server.stats
    assert stats.sessions_opened == concurrency
