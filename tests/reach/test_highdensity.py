"""High-density traversal: exactness and statistics."""

from __future__ import annotations

import math

import pytest

from repro.core.approx import (heavy_branch_subset, remap_under_approx,
                               short_paths_subset)
from repro.fsm import encode
from repro.fsm.benchmarks import (counter, shift_queue, token_ring,
                                  triangle_datapath)
from repro.reach import (PartialImagePolicy, TransitionRelation,
                         TraversalLimit, bfs_reachability, count_states,
                         high_density_reachability)

SUBSETTERS = [
    ("rua", lambda f, *, threshold=0: remap_under_approx(f, threshold), 0),
    ("sp", lambda f, *, threshold=0: short_paths_subset(f, threshold), 16),
    ("hb", lambda f, *, threshold=0: heavy_branch_subset(f, threshold), 16),
]


class TestExactness:
    @pytest.mark.parametrize("name,subset,threshold", SUBSETTERS)
    @pytest.mark.parametrize("make", [lambda: counter(4),
                                      lambda: token_ring(3),
                                      lambda: shift_queue(3, 2),
                                      lambda: triangle_datapath(3)])
    def test_reaches_same_states_as_bfs(self, name, subset, threshold,
                                        make):
        circuit = make()
        enc_bfs = encode(circuit)
        tr_bfs = TransitionRelation(enc_bfs)
        exact = bfs_reachability(tr_bfs, enc_bfs.initial_states())
        expected = count_states(exact.reached, enc_bfs.state_vars)

        enc_hd = encode(circuit)
        tr_hd = TransitionRelation(enc_hd)
        result = high_density_reachability(
            tr_hd, enc_hd.initial_states(), subset, threshold=threshold)
        assert result.complete
        assert count_states(result.reached,
                            enc_hd.state_vars) == expected

    def test_exact_with_partial_image(self):
        circuit = shift_queue(3, 2)
        enc_bfs = encode(circuit)
        tr_bfs = TransitionRelation(enc_bfs)
        expected = count_states(
            bfs_reachability(tr_bfs, enc_bfs.initial_states()).reached,
            enc_bfs.state_vars)

        enc = encode(circuit)
        tr = TransitionRelation(enc)
        policy = PartialImagePolicy(
            subset=lambda f, *, threshold=0: remap_under_approx(f, threshold),
            trigger=8, threshold=4)
        result = high_density_reachability(
            tr, enc.initial_states(),
            lambda f, *, threshold=0: remap_under_approx(f, threshold), threshold=0,
            partial=policy)
        assert result.complete
        assert count_states(result.reached, enc.state_vars) == expected
        assert tr.stats.subset_calls > 0


class TestStatistics:
    def test_densities_recorded(self):
        enc = encode(token_ring(3))
        tr = TransitionRelation(enc)
        result = high_density_reachability(
            tr, enc.initial_states(),
            lambda f, *, threshold=0: remap_under_approx(f, threshold))
        assert len(result.subset_densities) == result.iterations
        assert all(d > 0 for d in result.subset_densities)

    def test_densities_past_float_range(self):
        # 1,030 unused variables put every frontier's density past the
        # float range: the traversal records inf and still completes.
        enc = encode(counter(3))
        enc.manager.add_vars(*(f"pad{i}" for i in range(1030)))
        tr = TransitionRelation(enc)
        result = high_density_reachability(
            tr, enc.initial_states(),
            lambda f, *, threshold=0: remap_under_approx(f, threshold))
        assert result.complete
        assert count_states(result.reached, enc.state_vars) == 8
        assert result.subset_densities
        assert all(d == math.inf for d in result.subset_densities)

    def test_max_iterations(self):
        enc = encode(counter(5))
        tr = TransitionRelation(enc)
        result = high_density_reachability(
            tr, enc.initial_states(),
            lambda f, *, threshold=0: remap_under_approx(f, threshold), max_iterations=2)
        assert not result.complete

    def test_deadline_raises(self):
        enc = encode(shift_queue(4, 3))
        tr = TransitionRelation(enc)
        with pytest.raises(TraversalLimit):
            high_density_reachability(
                tr, enc.initial_states(),
                lambda f, *, threshold=0: remap_under_approx(f, threshold), deadline=0.0)

    def test_degenerate_subsetter_falls_back(self):
        # A subsetter that always returns FALSE must not wedge the
        # traversal.
        enc = encode(counter(3))
        tr = TransitionRelation(enc)
        result = high_density_reachability(
            tr, enc.initial_states(), lambda f, *, threshold=0: enc.manager.false)
        assert result.complete
        assert count_states(result.reached, enc.state_vars) == 8
