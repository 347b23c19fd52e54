"""Resource governor: budgets, fault injection, clean unwind.

The randomized suite here is the enforcement arm of the governor's
clean-unwind contract (see ``docs/robustness.md``): hundreds of
injected kernel aborts across every governed kernel, each followed by
a full sanitizer sweep and an exact re-run check against an
independent, same-seed manager.
"""

from __future__ import annotations

import gc
import os
import random
import weakref
from collections import Counter

import pytest

from repro.bdd import (Budget, BudgetExceeded, DeadlineExceeded,
                       InjectedAbort, ResourceError)
from repro.bdd.computed import ComputedTable, op_of
from repro.bdd.governor import CHECK_STRIDE, injection_from_env
from repro.bdd.restrict import constrain, restrict
from repro.core.approx.remap import remap_under_approx
from repro.core.decomp import cofactor_sizes
from repro.store import transfer

from ..helpers import fresh_manager, random_function, store_digest

#: Snapshot of the CI sweep's injection spec, taken before the autouse
#: fixture scrubs the environment (the env-smoke test replays it).
_ENV_INJECTION = os.environ.get("REPRO_INJECT_ABORT")


@pytest.fixture(autouse=True)
def _no_env_injection(monkeypatch):
    """Keep ambient ``REPRO_INJECT_ABORT`` from arming every manager.

    Under the CI fault-injection sweep the variable is set for the
    whole pytest run; without this scrub each test's managers would
    abort at an arbitrary point.  The dedicated env-smoke test re-sets
    it explicitly (replaying the sweep's spec via ``_ENV_INJECTION``).
    """
    monkeypatch.delenv("REPRO_INJECT_ABORT", raising=False)


NVARS = 14
#: Variables quantified out by the exists/and_exists workloads — the
#: *deepest* levels, so quantification traverses the whole graph
#: instead of stopping at the top levels.
QVARS = 6

#: Workload names.  Each drives the matching governed kernel long
#: enough (hundreds of matching kernel steps on the seeded operands,
#: verified by probing) that an injection within the first three
#: strides always fires.  The ``remap`` workload runs the RUA rebuild
#: with ``replacements=()`` so markNodes/buildResult traverse the whole
#: graph — with replacements enabled, an accepted replacement near the
#: root can collapse the traversal under one checkpoint stride.  The
#: ``cof`` workload computes every cofactor size of ``f``, which builds
#: no node and returns a dict rather than a function.  The ``vcomp``
#: workload shifts a function of ``x0..x12`` one variable down, an
#: order-preserving rename whose rebuilds are single ``mk`` calls,
#: except that ``x6`` becomes the non-literal ``x7 ^ x13``, whose
#: rebuilds go through ITE; both kinds are interleaved in the walk, so
#: an abort lands after some of each.
WORKLOADS = ("andex", "apply", "constrain", "exists", "ite", "remap",
             "restrict", "cof", "vcomp")

#: The computed-table op tag each workload's aborted kernel tallies its
#: lookups under (None: the kernel keeps no computed-table entries).
CACHE_OPS = {"andex": "andex", "apply": "and", "constrain": "constrain",
             "exists": "exists", "ite": "ite", "remap": None,
             "restrict": "restrict", "cof": None, "vcomp": "vcomp"}


def build_workload(seed: int, **settings):
    """A manager (built with ``settings``) plus thunks running one
    governed operation each.

    All derived operands are computed *here*, before any injection is
    armed, so each thunk exercises exactly its own kernel(s).
    """
    manager, variables = fresh_manager(NVARS, **settings)
    rng = random.Random(seed)
    f = random_function(manager, variables, rng, terms=18, width=4)
    g = random_function(manager, variables, rng, terms=18, width=4)
    h = random_function(manager, variables, rng, terms=18, width=4)
    care = g | h
    union = f | g
    names = [v.var for v in variables[-QVARS:]]
    shifted = random_function(manager, variables[:-1], rng, terms=18,
                              width=4)
    shift = {v.var: w for v, w in zip(variables, variables[1:])}
    shift[variables[6].var] = variables[7] ^ variables[13]
    ops = {
        "apply": lambda: f & g,
        "ite": lambda: f.ite(g, h),
        "exists": lambda: f.exists(names),
        "andex": lambda: f.and_exists(g, names),
        "constrain": lambda: constrain(f, care),
        "restrict": lambda: restrict(f, care),
        "remap": lambda: remap_under_approx(union, threshold=0,
                                            replacements=()),
        "cof": lambda: cofactor_sizes(f),
        "vcomp": lambda: shifted.compose(shift),
    }
    return manager, ops


#: Trials per workload: 9 x 30 = 270 injected aborts per run, each
#: sanitizer-swept and re-run — the >= 200 bar of the robustness work.
TRIALS = 30


@pytest.fixture
def lookups_made(monkeypatch):
    """Computed-table lookups per op tag, counted at the probe pair
    (each key's opcode names its op)."""
    counts: Counter[str] = Counter()
    probes = ComputedTable.probes

    def counting_probes(table):
        get, put = probes(table)

        def counted_get(key):
            counts[op_of(key)] += 1
            return get(key)

        return counted_get, put

    monkeypatch.setattr(ComputedTable, "probes", counting_probes)
    return counts


def _lookups(manager) -> Counter[str]:
    return Counter({op: s.lookups
                    for op, s in manager.stats.cache_per_op.items()})


def _seed(workload: str, trial: int) -> int:
    return (WORKLOADS.index(workload) + 1) * 10_000 + trial


# ----------------------------------------------------------------------
# The randomized fault-injection suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_aborts_unwind_cleanly(workload, lookups_made):
    """Abort each kernel at a random stride; the manager must stay
    consistent and the re-run must reproduce the unbudgeted result."""
    for trial in range(TRIALS):
        seed = _seed(workload, trial)
        manager, ops = build_workload(seed)
        rng = random.Random(seed ^ 0x5EED)
        manager.governor.inject_abort_after(
            CHECK_STRIDE * rng.randint(1, 3), op=workload)
        before = _lookups(manager)
        lookups_made.clear()
        with pytest.raises(InjectedAbort):
            ops[workload]()
        # Every kernel, the aborted one included, tallied each lookup
        # it made under its op.
        tallied = _lookups(manager) - before
        assert tallied == +lookups_made
        if CACHE_OPS[workload] is not None:
            assert tallied[CACHE_OPS[workload]] > 0
        # Clean unwind: the whole graph passes the sanitizer right
        # after the abort, injection is spent, the abort is recorded.
        assert manager.debug_check() == []
        assert not manager.governor.injection_pending
        assert manager.stats.aborts == {workload: 1}
        # The re-run (reusing any memoized sub-results of the aborted
        # attempt) must equal an independent same-seed manager's
        # result exactly.
        rerun = ops[workload]()
        other_manager, other_ops = build_workload(seed)
        expected = other_ops[workload]()
        if workload == "cof":
            assert rerun == expected
        else:
            assert transfer(rerun, other_manager) == expected
        assert manager.debug_check() == []


def test_abort_then_gc_reclaims_partial_nodes():
    manager, ops = build_workload(42)
    manager.collect_garbage()  # sweep construction garbage first
    live_before = len(manager)
    manager.governor.inject_abort_after(CHECK_STRIDE, op="apply")
    with pytest.raises(InjectedAbort):
        ops["apply"]()
    # The aborted attempt left rootless partial nodes behind; GC
    # reclaims every one of them.
    manager.collect_garbage()
    assert len(manager) == live_before
    assert manager.debug_check() == []


def test_abort_mid_ite_with_thrashing_cache_rerun_identical():
    """Cache eviction interleaved with an abort must not corrupt
    results: with a one-entry computed table (maximum eviction
    pressure), an aborted ``ite`` re-runs byte-identically."""
    seed = 7
    manager, ops = build_workload(seed, cache_limit=1)
    manager.governor.inject_abort_after(CHECK_STRIDE * 2, op="ite")
    with pytest.raises(InjectedAbort):
        ops["ite"]()
    assert manager.debug_check() == []
    rerun = ops["ite"]()
    other_manager, other_ops = build_workload(seed)
    expected = other_ops["ite"]()
    assert transfer(rerun, other_manager) == expected
    assert store_digest(rerun) == store_digest(expected)
    assert manager.stats.cache_evictions > 0


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(node_budget=0)
        with pytest.raises(ValueError):
            Budget(step_budget=-1)
        with pytest.raises(ValueError):
            Budget(deadline=-0.1)

    def test_unbounded(self):
        assert Budget().unbounded
        assert not Budget(node_budget=1).unbounded

    def test_exception_hierarchy(self):
        assert issubclass(BudgetExceeded, ResourceError)
        assert issubclass(DeadlineExceeded, ResourceError)
        assert issubclass(InjectedAbort, BudgetExceeded)


class TestWithBudget:
    def test_node_budget_aborts_and_restores(self):
        manager, ops = build_workload(1)
        baseline = len(manager)
        with pytest.raises(BudgetExceeded):
            with manager.with_budget(node_budget=baseline + 8):
                ops["apply"]()
        assert not manager.governor.armed
        assert manager.debug_check() == []
        assert manager.stats.aborts == {"apply": 1}
        assert manager.stats.budget_peak_nodes > baseline
        # Unbudgeted, the same operation completes fine.
        ops["apply"]()

    def test_step_budget_aborts(self):
        manager, ops = build_workload(2)
        with pytest.raises(BudgetExceeded):
            with manager.with_budget(step_budget=CHECK_STRIDE):
                ops["ite"]()
        assert manager.stats.budget_peak_steps > CHECK_STRIDE
        assert manager.debug_check() == []

    def test_deadline_aborts(self):
        manager, ops = build_workload(3)
        with pytest.raises(DeadlineExceeded):
            with manager.with_budget(deadline=0.0):
                ops["apply"]()
        assert manager.debug_check() == []

    def test_step_window_is_per_scope(self):
        """Each armed scope gets a fresh step window, so a long-lived
        manager can run many bounded scopes back to back."""
        manager, ops = build_workload(4)
        for name in ("apply", "ite", "exists"):
            with manager.with_budget(step_budget=1_000_000):
                ops[name]()  # never near the bound, must not abort

    def test_nesting_inner_budget_wins(self):
        manager, ops = build_workload(5)
        with manager.with_budget(step_budget=10_000_000):
            with pytest.raises(BudgetExceeded):
                with manager.with_budget(step_budget=CHECK_STRIDE):
                    ops["apply"]()
            # Outer (roomy) budget restored: work completes.
            assert manager.governor.step_budget == 10_000_000
            ops["apply"]()
        assert not manager.governor.armed

    def test_remaining_steps(self):
        manager, _ = fresh_manager(2)
        assert manager.governor.remaining_steps() is None
        with manager.with_budget(step_budget=100):
            assert manager.governor.remaining_steps() == 100


class TestSuspended:
    def test_suspends_budget_and_injection(self):
        manager, ops = build_workload(6)
        governor = manager.governor
        governor.inject_abort_after(CHECK_STRIDE, op="apply")
        with manager.with_budget(step_budget=CHECK_STRIDE):
            with governor.suspended():
                ops["apply"]()  # neither budget nor injection fires
            assert governor.step_budget == CHECK_STRIDE
        assert governor.injection_pending
        governor.clear_injection()
        assert not governor.injection_pending


# ----------------------------------------------------------------------
# Fault-injection plumbing
# ----------------------------------------------------------------------

class TestInjection:
    def test_inject_validation(self):
        manager, _ = fresh_manager(2)
        with pytest.raises(ValueError):
            manager.governor.inject_abort_after(0)

    def test_injection_is_one_shot(self):
        manager, ops = build_workload(8)
        manager.governor.inject_abort_after(CHECK_STRIDE)
        with pytest.raises(InjectedAbort):
            ops["apply"]()
        # Spent: the very same call now completes.
        ops["apply"]()

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_ABORT", "apply:128")
        assert injection_from_env() == ("apply", 128)
        monkeypatch.delenv("REPRO_INJECT_ABORT")
        assert injection_from_env() is None
        for bad in ("apply:", "apply:x", ":64", "apply:0"):
            monkeypatch.setenv("REPRO_INJECT_ABORT", bad)
            with pytest.raises(ValueError):
                injection_from_env()

    def test_env_injection_smoke(self, monkeypatch):
        """End-to-end replay of the CI sweep: the env spec arms every
        fresh manager, the abort fires mid-kernel, the manager stays
        clean, and the workload completes on re-run."""
        spec = _ENV_INJECTION or "apply:64"
        monkeypatch.setenv("REPRO_INJECT_ABORT", spec)
        manager, variables = fresh_manager(NVARS)
        assert manager.governor.injection_pending
        rng = random.Random(9)
        fired = False
        try:
            # Mixed workload covering every op the CI matrix injects
            # into; caches are cleared between rounds so kernels keep
            # doing real work until the abort lands.
            for _ in range(20):
                f = random_function(manager, variables, rng, terms=18,
                                    width=4)
                g = random_function(manager, variables, rng, terms=18,
                                    width=4)
                names = [v.var for v in variables[-QVARS:]]
                f & g
                f.ite(g, f ^ g)
                f.and_exists(g, names)
                f.exists(names)
                cofactor_sizes(f)
                f.compose({variables[-1].var: g})
                manager.computed.clear()
        except InjectedAbort:
            fired = True
        assert fired, f"injection {spec!r} never fired"
        assert manager.debug_check() == []
        assert not manager.governor.injection_pending
        assert manager.stats.total_aborts == 1
        # The manager keeps working normally after the abort.
        f = random_function(manager, variables, rng, terms=18, width=4)
        g = random_function(manager, variables, rng, terms=18, width=4)
        assert (f & g) <= f


# ----------------------------------------------------------------------
# Statistics and manager integration
# ----------------------------------------------------------------------

class TestStats:
    def test_checkpoint_counters_accumulate(self):
        manager, ops = build_workload(10)
        governor = manager.governor
        ops["apply"]()
        assert governor.steps > 0

    def test_stats_surface_and_accumulate(self):
        manager, ops = build_workload(11)
        manager.governor.inject_abort_after(CHECK_STRIDE, op="apply")
        with pytest.raises(InjectedAbort):
            ops["apply"]()
        stats = manager.stats
        assert stats.aborts == {"apply": 1}
        assert stats.total_aborts == 1
        as_dict = stats.as_dict()
        assert as_dict["aborts"] == {"apply": 1}
        assert "degradations" in as_dict
        # Counters only grow: a later abort adds to the earlier one.
        manager.governor.inject_abort_after(CHECK_STRIDE, op="ite")
        with pytest.raises(InjectedAbort):
            ops["ite"]()
        stats = manager.stats
        assert stats.aborts == {"apply": 1, "ite": 1}
        assert stats.total_aborts == 2

    def test_record_degradation(self):
        manager, _ = fresh_manager(2)
        manager.record_degradation("subset")
        manager.record_degradation("subset")
        manager.record_degradation("gc")
        stats = manager.stats
        assert stats.degradations == {"subset": 2, "gc": 1}
        assert stats.total_degradations == 3


class TestDeferGc:
    def test_deferred_collection_runs_when_body_raises(self):
        """``defer_gc`` must run the postponed safe point even on an
        exception — an aborted algorithm cannot wedge GC off."""
        manager, variables = fresh_manager(8)
        rng = random.Random(0)
        garbage = random_function(manager, variables, rng, terms=12)
        live = len(manager)
        manager.gc_threshold = 1  # every safe point wants to collect
        before = manager.stats.gc_count
        with pytest.raises(RuntimeError):
            with manager.defer_gc():
                del garbage
                raise RuntimeError("kernel abort mid-deferral")
        assert manager._gc_defer == 0
        assert manager.stats.gc_count > before
        assert len(manager) < live  # the dropped function was swept
        assert manager.debug_check() == []

    def test_defer_gc_still_nests(self):
        manager, variables = fresh_manager(4)
        manager.gc_threshold = 1
        with manager.defer_gc():
            with manager.defer_gc():
                assert manager._gc_defer == 2
            assert manager._gc_defer == 1
        assert manager._gc_defer == 0


def test_dropped_manager_is_freed_without_the_cycle_collector():
    """The governor holds no back-reference to its manager, so a
    manager that ran a traversal is freed by reference counting alone
    once its last reference drops."""
    from repro.fsm.benchmarks import counter
    from repro.fsm.encode import encode
    from repro.reach.bfs import bfs_reachability
    from repro.reach.transition import TransitionRelation

    enabled = gc.isenabled()
    gc.disable()
    try:
        encoded = encode(counter(4))
        relation = TransitionRelation(encoded)
        result = bfs_reachability(relation, encoded.initial_states())
        assert result.complete
        manager = weakref.ref(encoded.manager)
        del encoded, relation, result
        assert manager() is None
    finally:
        if enabled:
            gc.enable()
