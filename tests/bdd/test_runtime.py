"""Manager runtime layer: bounded computed table, auto-GC, statistics."""

from __future__ import annotations

import sys

import pytest

from repro.bdd import ComputedTable, Manager
from repro.bdd.computed import pack
from repro.fsm.benchmarks import counter, token_ring
from repro.fsm.encode import encode
from repro.reach.bfs import bfs_reachability, count_states
from repro.reach.highdensity import high_density_reachability
from repro.reach.transition import TransitionRelation

from ..helpers import store_digest


class TestComputedTable:
    def test_unbounded_by_default(self):
        table = ComputedTable()
        _, put = table.probes()
        for i in range(1000):
            put(pack("and", i), i)
        assert len(table) == 1000
        assert not any(s.evictions for s in table.stats().values())

    def test_bounded_evicts(self):
        table = ComputedTable(limit=16)
        _, put = table.probes()
        for i in range(100):
            put(pack("and", i), i)
        assert len(table) <= 16
        assert sum(s.evictions for s in table.stats().values()) > 0

    def test_hit_miss_counting(self):
        # The probes count nothing; the caller tallies what it saw.
        table = ComputedTable()
        get, put = table.probes()
        assert get(pack("ite", 1)) is None
        put(pack("ite", 1), "r")
        assert get(pack("ite", 1)) == "r"
        assert table.stats() == {}
        table.tally("ite", 1, 1)
        table.tally("ite", 0, 0)
        table.tally("and", 0, 0)  # an idle kernel leaves no record
        s = table.stats()["ite"]
        assert (s.hits, s.misses) == (1, 1)
        assert s.hit_rate == 0.5
        assert set(table.stats()) == {"ite"}

    def test_tally_rejects_unregistered_tag(self):
        table = ComputedTable()
        with pytest.raises(ValueError, match="'frobnicate'"):
            table.tally("frobnicate", 1, 0)
        assert table.stats() == {}

    def test_eviction_attributed_to_evicted_op(self):
        table = ComputedTable(limit=1)
        _, put = table.probes()
        put(pack("and", 1), 1)
        put(pack("or", 1), 1)
        # The "and" entry was pushed out by the "or" insert.
        assert table.stats()["and"].evictions == 1
        assert table.stats().get("or", None) is None \
            or table.stats()["or"].evictions == 0

    def test_limit_validation(self):
        for limit in (0, -5):
            with pytest.raises(ValueError):
                ComputedTable(limit)
            with pytest.raises(ValueError):
                Manager(cache_limit=limit)

    @pytest.mark.parametrize("limit", [None, 8])
    def test_probes_survive_clear(self, limit):
        table = ComputedTable(limit)
        get, put = table.probes()
        put(pack("and", 1), 1)
        table.clear()
        assert len(table) == 0
        assert get(pack("and", 1)) is None
        put(pack("and", 1), 1)
        assert get(pack("and", 1)) == 1
        assert len(table) == 1


class TestProbePair:
    """Bounded and unbounded tables run the same kernel code, so with
    no eviction they count the same hits and misses per op."""

    @staticmethod
    def _run(cache_limit):
        from repro.bdd.restrict import restrict

        m = Manager([f"x{i}" for i in range(10)], cache_limit=cache_limit)
        xs = [m.var(f"x{i}") for i in range(10)]
        f = (xs[0] & xs[3]) | (xs[1] ^ xs[5]) | (~xs[2] & xs[7])
        g = (xs[4] | xs[6]) & (xs[0] ^ xs[2])
        h = f.ite(g, xs[1] | xs[6])
        results = [
            f & g, h,
            h.exists(["x1", "x2"]),
            f.and_exists(g, ["x0", "x4"]),
            h.rename({"x5": "x8", "x7": "x9"}),
            restrict(f, g),
        ]
        contained = (f & g) <= f, f <= g
        per_op = {op: (s.hits, s.misses)
                  for op, s in m.stats.cache_per_op.items()}
        return ([store_digest(r) for r in results], contained, per_op,
                m.stats.cache_evictions)

    def test_same_counts_bounded_and_unbounded(self):
        unbounded = self._run(None)
        bounded = self._run(65_537)
        assert bounded[3] == 0  # too large to evict
        assert bounded == unbounded
        ops = set(unbounded[2])
        assert {"and", "ite", "exists", "andex", "vcomp", "leq",
                "restrict"} <= ops


class TestBoundedCacheCanonicity:
    def test_eviction_preserves_canonicity(self):
        """Recomputing an evicted result yields the identical node."""
        m = Manager([f"x{i}" for i in range(10)], cache_limit=8)
        xs = [m.var(f"x{i}") for i in range(10)]
        products = [xs[i] & xs[i + 1] for i in range(9)]
        first = [(p.node, p) for p in products]
        # Thrash the tiny cache so earlier entries are evicted ...
        for i in range(9):
            _ = products[i] | xs[(i + 3) % 10]
        assert m.stats.cache_evictions > 0
        # ... then recompute: hash-consing must return the same nodes.
        again = [xs[i] & xs[i + 1] for i in range(9)]
        for (node, p), q in zip(first, again):
            assert q.node == node
            assert q == p

    def test_results_independent_of_cache_limit(self):
        def build(**kw):
            m = Manager([f"x{i}" for i in range(8)], **kw)
            xs = [m.var(f"x{i}") for i in range(8)]
            f = m.false
            for i in range(8):
                f = f | (xs[i] & ~xs[(i + 1) % 8])
            g = f.exists([f"x{j}" for j in range(0, 8, 2)])
            return f.sat_count(), g.sat_count(), len(f), len(g)

        assert build() == build(cache_limit=16)


class TestAutomaticGC:
    def test_gc_fires_at_safe_points(self):
        m = Manager([f"x{i}" for i in range(12)], gc_threshold=20)
        xs = [m.var(f"x{i}") for i in range(12)]
        f = m.false
        for i in range(12):
            f = f | (xs[i] & xs[(i + 1) % 12] & ~xs[(i + 5) % 12])
            del f  # drop the old root each round to create dead nodes
            f = m.false | xs[i]
        assert m.stats.gc_count > 0
        assert m.stats.gc_reclaimed > 0

    def test_gc_threshold_validation(self):
        with pytest.raises(ValueError):
            Manager(gc_threshold=0)
        m = Manager(["a"])
        with pytest.raises(ValueError):
            m.gc_threshold = 0
        with pytest.raises(ValueError):
            m.gc_threshold = -1
        m.gc_threshold = 5
        assert m.gc_threshold == 5
        m.gc_threshold = None
        assert m.gc_threshold is None

    def test_defer_gc_suppresses_collection(self):
        m = Manager([f"x{i}" for i in range(8)], gc_threshold=1)
        xs = [m.var(f"x{i}") for i in range(8)]
        with m.defer_gc():
            before = m.stats.gc_count
            f = xs[0] & xs[1]
            g = f | xs[2]
            assert m.stats.gc_count == before
        assert (f & g) == f  # results still valid after the block

    def test_gc_never_fires_mid_recursion(self, monkeypatch):
        """Stress reachability with an aggressive threshold and assert
        every collection happens outside any kernel traversal frame
        (the iterative kernels hold raw nodes on their explicit stacks).
        """
        recursion_frames = {
            "apply_node", "not_node", "ite_node", "leq_node",
            "cofactor_node", "vector_compose_node", "exists_node",
            "forall_node", "_quantify", "and_exists_node",
            "constrain_node", "restrict_node", "build_result",
        }
        offenders: list[str] = []
        original = Manager.collect_garbage

        def checked(self):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name in recursion_frames:
                    offenders.append(frame.f_code.co_name)
                frame = frame.f_back
            return original(self)

        monkeypatch.setattr(Manager, "collect_garbage", checked)
        encoded = encode(token_ring(4))
        encoded.manager.gc_threshold = 8  # absurdly aggressive
        tr = TransitionRelation(encoded)
        from repro.core.approx import UNDER_APPROXIMATORS
        result = high_density_reachability(
            tr, encoded.initial_states(), UNDER_APPROXIMATORS["rua"],
            threshold=50)
        assert encoded.manager.stats.gc_count > 0
        assert offenders == []
        assert result.complete

    def test_gc_stats_populated(self):
        m = Manager(["a", "b", "c"])
        a, b = m.var("a"), m.var("b")
        f = a & b
        del f
        reclaimed = m.collect_garbage()
        s = m.stats
        assert s.gc_count == 1
        assert s.gc_reclaimed == reclaimed
        assert s.gc_pause_total >= 0
        assert s.gc_pause_max <= s.gc_pause_total


class TestManagerStats:
    def test_counters_reconcile(self):
        m = Manager(["a", "b", "c"])
        a, b = m.var("a"), m.var("b")
        _ = a & b
        _ = a & b  # safe_point may clear nothing; cache entry survives
        per_op = m.stats.cache_per_op
        assert per_op["and"].misses >= 1
        assert per_op["and"].hits >= 1
        totals = m.stats
        assert totals.cache_hits == sum(s.hits
                                        for s in per_op.values())
        assert totals.cache_misses == sum(s.misses
                                          for s in per_op.values())
        assert totals.cache_evictions == sum(s.evictions
                                             for s in per_op.values())

    def test_op_tags_cover_operations(self):
        m = Manager(["a", "b", "c", "d"])
        a, b, c = m.var("a"), m.var("b"), m.var("c")
        _ = a & b
        _ = a | b
        _ = a ^ b
        _ = a.ite(b, c)
        _ = (a & b).exists(["a"])
        _ = (a | b).forall(["b"])
        ops = set(m.stats.cache_per_op)
        assert {"and", "or", "xor", "ite", "exists", "forall"} <= ops

    def test_peak_nodes(self):
        m = Manager([f"x{i}" for i in range(6)])
        xs = [m.var(f"x{i}") for i in range(6)]
        f = xs[0]
        for x in xs[1:]:
            f = f ^ x
        assert m.stats.peak_nodes >= len(m)
        assert m.stats.peak_nodes >= m.stats.nodes

    def test_stats_snapshot_is_frozen(self):
        m = Manager(["a"])
        with pytest.raises(AttributeError):
            m.stats.nodes = 0


class TestReachabilityByteIdentical:
    """Acceptance: cache bounding + auto-GC must not change results."""

    @pytest.mark.parametrize("circuit", [counter(4), token_ring(4)])
    def test_bfs_identical(self, circuit):
        def run(**kw):
            encoded = encode(circuit, manager=Manager(**kw))
            tr = TransitionRelation(encoded)
            r = bfs_reachability(tr, encoded.initial_states())
            return (count_states(r.reached, encoded.state_vars),
                    len(r.reached), r.iterations, r.complete)

        assert run() == run(cache_limit=256, gc_threshold=64)

    def test_high_density_identical(self):
        from repro.core.approx import UNDER_APPROXIMATORS

        def run(**kw):
            encoded = encode(token_ring(4), manager=Manager(**kw))
            tr = TransitionRelation(encoded)
            r = high_density_reachability(
                tr, encoded.initial_states(),
                UNDER_APPROXIMATORS["rua"], threshold=40)
            return (count_states(r.reached, encoded.state_vars),
                    len(r.reached), r.iterations, r.complete)

        assert run() == run(cache_limit=128, gc_threshold=32)

    @pytest.mark.parametrize("circuit", [counter(5), token_ring(5)])
    def test_eviction_mid_operation_identical(self, circuit):
        """A cache bound tiny enough to evict *during* the image-step
        kernels (the iterative explicit-stack traversals re-derive the
        lost sub-results through the unique table) must still produce
        byte-identical fixpoints vs an unbounded cache.
        """
        def run(cache_limit=None):
            manager = Manager(cache_limit=cache_limit)
            encoded = encode(circuit, manager=manager)
            tr = TransitionRelation(encoded)
            r = bfs_reachability(tr, encoded.initial_states())
            evictions = manager.stats.cache_evictions
            return (count_states(r.reached, encoded.state_vars),
                    len(r.reached), r.iterations, r.complete), evictions

        unbounded, no_evictions = run()
        bounded, evictions = run(cache_limit=32)
        assert no_evictions == 0
        # The bound must be small enough that entries are lost while a
        # fixpoint (and the kernels inside it) is still in flight.
        assert evictions > 0
        assert bounded == unbounded


class TestMetricCaches:
    """Per-manager metric caches for bdd_size / support_levels."""

    def _build(self):
        from tests.helpers import fresh_manager
        manager, (a, b, c, d) = fresh_manager(4)
        f = (a & b) | (c & ~d)
        return manager, f

    def test_len_and_support_populate_the_cache(self):
        manager, f = self._build()
        assert f.node not in manager._size_cache
        size = len(f)
        assert manager._size_cache[f.node] == size
        support = f.support()
        assert support == {"x0", "x1", "x2", "x3"}
        assert f.node in manager._support_cache
        # Cached answers stay consistent with a fresh walk.
        from repro.bdd import bdd_size
        assert len(f) == bdd_size(manager.store, f.node)
        assert f.support() == support

    def test_gc_invalidates(self):
        manager, f = self._build()
        len(f), f.support()
        manager.collect_garbage()
        assert f.node not in manager._size_cache
        assert f.node not in manager._support_cache
        # and repopulating still gives the right answer
        from repro.bdd import bdd_size
        assert len(f) == bdd_size(manager.store, f.node)

    def test_reorder_invalidates_and_stays_correct(self):
        from repro.bdd import bdd_size
        from repro.bdd.reorder import sift

        manager, f = self._build()
        before_support = f.support()
        len(f)
        sift(manager)
        # swap_adjacent rewrites nodes in place: the caches were
        # flushed, so fresh walks and cached walks must agree.
        assert len(f) == bdd_size(manager.store, f.node)
        assert f.support() == before_support

    def test_dead_nodes_do_not_pin_the_cache(self):
        import gc

        manager, f = self._build()
        node = f.node
        len(f)
        assert node in manager._size_cache
        del f
        del node
        gc.collect()
        # GC flushes the metric caches wholesale, so dead handles
        # never pin entries (and recycled ids can never alias them).
        manager.collect_garbage()
        assert len(manager._size_cache) == 0
