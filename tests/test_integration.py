"""End-to-end integration: netlist -> BDDs -> traversal -> paper ops.

Each test exercises a full pipeline across subsystems, the way the
paper's reachability engine composes them.
"""

from __future__ import annotations

import pytest

from repro.bdd import Manager
from repro.core.approx import (c1, remap_under_approx,
                               short_paths_subset)
from repro.core.decomp import (conjoin, decompose, mcmillan_decompose)
from repro.fsm import encode
from repro.fsm.benchmarks import checksum_memory, shift_queue
from repro.fsm.blif import parse_blif, write_blif
from repro.reach import (TransitionRelation, bfs_reachability,
                         count_states, high_density_reachability)
from repro.store import decode_roots, encode_roots, transfer


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def traversal(self):
        circuit = checksum_memory(4, 3)
        encoded = encode(circuit)
        tr = TransitionRelation(encoded)
        # Stop mid-way so the reached set is a nontrivial BDD.
        partial = bfs_reachability(tr, encoded.initial_states(),
                                   max_iterations=3)
        return circuit, encoded, tr, partial

    def test_blif_roundtrip_preserves_reachability(self, traversal):
        circuit, encoded, tr, partial = traversal
        text = write_blif(circuit)
        reparsed = parse_blif(text)
        encoded2 = encode(reparsed)
        tr2 = TransitionRelation(encoded2)
        again = bfs_reachability(tr2, encoded2.initial_states(),
                                 max_iterations=3)
        assert count_states(again.reached, encoded2.state_vars) \
            == count_states(partial.reached, encoded.state_vars)

    def test_approximate_then_traverse(self, traversal):
        circuit, encoded, tr, partial = traversal
        # Approximating the reached set yields a valid smaller set of
        # genuinely reachable states.
        subset = remap_under_approx(partial.reached)
        assert subset <= partial.reached
        # Its image stays within the true reachable set.
        full = bfs_reachability(tr, encoded.initial_states())
        assert tr.image(subset) <= full.reached

    def test_decompose_reached_set(self, traversal):
        circuit, encoded, tr, partial = traversal
        for method in ("cofactor", "band", "disjoint"):
            g, h = decompose(partial.reached, method)
            assert (g & h) == partial.reached

    def test_mcmillan_reached_set(self, traversal):
        circuit, encoded, tr, partial = traversal
        factors = mcmillan_decompose(partial.reached)
        assert conjoin(factors) == partial.reached
        manager = partial.reached.manager
        assert manager.conjoin(factors) == partial.reached

    def test_serialize_reached_set_across_managers(self, traversal):
        circuit, encoded, tr, partial = traversal
        target = Manager()
        copy = transfer(partial.reached, target)
        assert copy.sat_count(encoded.manager.num_vars) \
            == partial.reached.sat_count()
        blob = encode_roots(encoded.manager, {"reached": partial.reached})
        assert decode_roots(target, blob)["reached"] == copy

    def test_compound_approx_of_frontier(self, traversal):
        circuit, encoded, tr, partial = traversal
        frontier = partial.reached
        compact = c1(frontier)
        assert compact <= frontier
        assert compact.density() >= frontier.density() - 1e-9


class TestHighDensityMatrix:
    @pytest.mark.parametrize("threshold", [0, 16, 256])
    def test_queue_thresholds_all_exact(self, threshold):
        circuit = shift_queue(4, 2)
        encoded = encode(circuit)
        tr = TransitionRelation(encoded)
        exact = bfs_reachability(tr, encoded.initial_states())
        expected = count_states(exact.reached, encoded.state_vars)
        for subset in (lambda f, *, threshold=0: remap_under_approx(f, threshold),
                       lambda f, *, threshold=0: short_paths_subset(f, max(1, threshold))):
            encoded2 = encode(circuit)
            tr2 = TransitionRelation(encoded2)
            result = high_density_reachability(
                tr2, encoded2.initial_states(), subset,
                threshold=threshold)
            assert count_states(result.reached,
                                encoded2.state_vars) == expected

    @pytest.mark.parametrize("cluster_limit", [1, 100, 10 ** 9])
    def test_cluster_limits_do_not_change_reachability(self,
                                                       cluster_limit):
        circuit = shift_queue(3, 2)
        encoded = encode(circuit)
        tr = TransitionRelation(encoded, cluster_limit=cluster_limit)
        result = bfs_reachability(tr, encoded.initial_states())
        # 216 reachable states, independent of the clustering.
        assert count_states(result.reached, encoded.state_vars) == 216
