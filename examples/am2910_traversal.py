#!/usr/bin/env python3
"""Traversing the Am2910 microprogram sequencer.

The paper's hardest benchmark: exact breadth-first traversal of the
am2910 did not finish in two weeks, while high-density traversal with
approximate frontiers completed.  This example runs a scaled-down
instance of this package's from-scratch Am2910 model (the full
``width=12, depth=6`` configuration reproduces the benchmark's 99
flip-flops) both ways, and both reach the same exact state count.
The paper's gap does not show here.  BFS images the smaller of its
frontier and its reached set, so on a 2-core box it finishes in
3.5-5 s, ahead of short-path high-density traversal (5.5 s); imaging
the frontier alone took it 7.6 s (EXPERIMENTS.md, Table 1).

Run:  python examples/am2910_traversal.py
"""

import time

from repro.core.approx import short_paths_subset
from repro.fsm import encode
from repro.fsm.am2910 import am2910
from repro.bdd import DeadlineExceeded
from repro.reach import (TransitionRelation, bfs_reachability,
                         count_states, high_density_reachability)

WIDTH, DEPTH = 5, 3
BFS_BUDGET_SECONDS = 20.0


def main() -> None:
    circuit = am2910(WIDTH, DEPTH)
    print(f"Am2910 model: width={WIDTH}, depth={DEPTH} -> "
          f"{circuit.num_latches} flip-flops "
          f"(width=12, depth=6 gives the benchmark's 99)")

    # Exact BFS under a governor deadline, standing in for the paper's
    # ">2 weeks" entry.
    encoded = encode(circuit)
    tr = TransitionRelation(encoded)
    start = time.perf_counter()
    try:
        with encoded.manager.with_budget(deadline=BFS_BUDGET_SECONDS):
            bfs = bfs_reachability(tr, encoded.initial_states())
        print(f"BFS:    {time.perf_counter() - start:6.1f}s  "
              f"{count_states(bfs.reached, encoded.state_vars)} states "
              f"in {bfs.iterations} iterations")
    except DeadlineExceeded as exc:
        print(f"BFS:    gave up ({exc})")

    # High-density traversal with short-path frontier subsetting.
    encoded_hd = encode(circuit)
    tr_hd = TransitionRelation(encoded_hd)
    start = time.perf_counter()
    hd = high_density_reachability(
        tr_hd, encoded_hd.initial_states(),
        lambda f, *, threshold=0: short_paths_subset(f, threshold), threshold=150)
    states = count_states(hd.reached, encoded_hd.state_vars)
    print(f"HD-SP:  {time.perf_counter() - start:6.1f}s  "
          f"{states} states in {hd.iterations} iterations "
          f"({hd.recoveries} recovery sweeps) — exact")
    print(f"        state space coverage: {states} of "
          f"{2 ** circuit.num_latches} latch configurations")


if __name__ == "__main__":
    main()
