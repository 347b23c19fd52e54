"""Experiment workers: the per-task bodies of the paper's sweeps.

These functions are the payload handlers handed to
:func:`repro.harness.engine.run_tasks`.  Each takes one picklable
payload, rebuilds whatever BDDs it needs inside the calling process
(workers own their manager — graphs never cross process boundaries),
and returns plain-data rows ready for both table rendering and the
``BENCH_*.json`` files.  Every Table 2–4 row carries a ``digest``: the
content address (:func:`repro.store.format.content_address` of
:func:`~repro.store.format.encode_roots`) of every function the row
measures, so a row pins its result sets as well as their counts.

They live in the package (rather than in ``benchmarks/``) so the
benchmark modules and the determinism tests drive the *same*
experiment bodies: the parallel engine is required to reproduce the
sequential rows byte for byte, which only makes sense when both paths
share one implementation.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..bdd.counting import shared_size
from ..core.approx import (bdd_under_approx, c1, c2, heavy_branch_subset,
                           remap_under_approx, short_paths_subset)
from ..core.decomp import DECOMPOSERS, decompose
from ..fsm.encode import encode
from ..reach import (PartialImagePolicy, TransitionRelation,
                     TraversalLimit, bfs_reachability, count_states,
                     high_density_reachability)
from ..store.format import content_address, encode_roots
from .population import build_entries, make_circuit

__all__ = [
    "SIMPLE_METHODS",
    "COMPOUND_METHODS",
    "DECOMP_METHODS",
    "simple_approx_rows",
    "compound_approx_rows",
    "decomposition_rows",
    "reachability_row",
]

#: Table 2 column order (F is the unapproximated function).
SIMPLE_METHODS = ("F", "HB", "SP", "UA", "RUA")
#: Table 3 column order.
COMPOUND_METHODS = ("RUA", "SP", "C1", "C2")
#: Table 4 column order.
DECOMP_METHODS = tuple(DECOMPOSERS)


def _slice_stats(entries) -> dict | None:
    """``ManagerStats.as_dict()`` of the manager behind a population
    slice (every entry of one spec shares it), or None for an empty
    slice."""
    if not entries:
        return None
    return entries[0].function.manager.stats.as_dict()


# ----------------------------------------------------------------------
# Tables 2 and 3: approximation sweeps over the population
# ----------------------------------------------------------------------

def simple_approx_rows(payload) -> dict:
    """Table 2 worker: the simple methods over one population slice.

    ``payload`` is ``(spec, min_nodes)``.  Protocol follows the paper:
    UA/RUA run with threshold 0 and quality 1; the RUA result sizes are
    used as the size budgets for HB and SP.
    """
    spec, min_nodes = payload
    entries = build_entries(spec, min_nodes=min_nodes)
    rows = []
    for entry in entries:
        f = entry.function
        nvars = f.manager.num_vars
        rua = remap_under_approx(f, threshold=0, quality=1.0)
        budget = max(1, len(rua))
        results = {
            "F": f,
            "HB": heavy_branch_subset(f, budget),
            "SP": short_paths_subset(f, budget),
            "UA": bdd_under_approx(f, threshold=0),
            "RUA": rua,
        }
        row = {"key": entry.name}
        for name, g in results.items():
            assert g <= f, f"{name} broke the subset contract"
            row[f"{name}_nodes"] = len(g)
            row[f"{name}_minterms"] = g.sat_count(nvars)
        row["digest"] = content_address(encode_roots(f.manager, results))
        rows.append(row)
    return {"rows": rows, "manager_stats": _slice_stats(entries)}


def compound_approx_rows(payload) -> dict:
    """Table 3 worker: compound methods C1/C2 over one slice.

    ``payload`` is ``(spec, min_nodes)``.  C1 = RUA + safe minimization;
    C2 = SP + RUA + safe minimization with the SP threshold set to the
    RUA result size, as in the paper's protocol.
    """
    spec, min_nodes = payload
    entries = build_entries(spec, min_nodes=min_nodes)
    rows = []
    for entry in entries:
        f = entry.function
        nvars = f.manager.num_vars
        rua = remap_under_approx(f, threshold=0, quality=1.0)
        sp = short_paths_subset(f, max(1, len(rua)))
        c1_result = c1(f)
        c2_result = c2(f, sp_threshold=max(1, len(rua)))
        for name, g in (("C1", c1_result), ("C2", c2_result)):
            assert g <= f, f"{name} broke the subset contract"
        assert c1_result.sat_count(nvars) >= rua.sat_count(nvars)
        results = {"RUA": rua, "SP": sp, "C1": c1_result,
                   "C2": c2_result}
        row = {"key": entry.name}
        for name, g in results.items():
            row[f"{name}_nodes"] = len(g)
            row[f"{name}_minterms"] = g.sat_count(nvars)
        row["digest"] = content_address(encode_roots(f.manager, results))
        rows.append(row)
    return {"rows": rows, "manager_stats": _slice_stats(entries)}


# ----------------------------------------------------------------------
# Table 4: decomposition sweep
# ----------------------------------------------------------------------

def decomposition_rows(payload) -> dict:
    """Table 4 worker: the two-way decompositions over one slice.

    ``payload`` is ``(spec, min_nodes)``.  Each row records, per method,
    the shared size of the factor pair, |G|, |H|, and the larger factor
    (the paper's win criterion), plus ``f_nodes`` so callers can slice
    the population into the paper's two size classes.  The digest
    covers every method's two factors.
    """
    spec, min_nodes = payload
    entries = build_entries(spec, min_nodes=min_nodes)
    rows = []
    for entry in entries:
        f = entry.function
        row = {"key": entry.name, "f_nodes": len(f)}
        factors = {}
        for method in DECOMP_METHODS:
            g, h = decompose(f, method)
            assert (g & h) == f, f"{method} broke f = g*h"
            row[f"{method}_shared"] = shared_size(
                f.manager.store, [g.node, h.node])
            row[f"{method}_g"] = len(g)
            row[f"{method}_h"] = len(h)
            row[f"{method}_big"] = max(len(g), len(h))
            factors[f"{method}_g"], factors[f"{method}_h"] = g, h
        row["digest"] = content_address(encode_roots(f.manager, factors))
        rows.append(row)
    return {"rows": rows, "manager_stats": _slice_stats(entries)}


# ----------------------------------------------------------------------
# Table 1: reachability analysis
# ----------------------------------------------------------------------

def reachability_row(payload) -> dict:
    """Table 1 worker: one (circuit, method) reachability run.

    ``payload`` is a dict with keys

    ``factory``, ``args``
        circuit recipe (see ``CIRCUIT_FACTORIES``),
    ``method``
        ``"bfs"``, ``"rua"`` or ``"sp"``,
    ``threshold``, ``quality``
        subsetting parameters (quality is RUA-only),
    ``pimg``
        optional ``(trigger, threshold)`` partial-image policy,
    ``deadline``
        wall-clock budget in seconds for the traversal itself (a BFS
        run over budget reports ``traverse_seconds: None`` — the
        paper's ">2 weeks" entries — instead of failing the task),
    ``node_budget``, ``step_budget``
        optional governor budgets armed (``Manager.with_budget``)
        around the traversal,
    ``on_blowup``
        reaction to governor aborts (default ``"raise"``, in which case
        the abort escapes and the engine records a typed ``budget``
        failure row; ``"subset"``/``"retry-reorder"`` degrade through
        the escalation ladder and the row completes normally).

    The row's ``traverse_seconds`` is the paper-table number; the
    engine separately reports whole-task seconds including the circuit
    rebuild.  ``manager_stats`` is the circuit manager's
    ``ManagerStats.as_dict()``, whose ``aborts``/``degradations`` count
    the governor events of the run.
    """
    circuit = make_circuit(payload["factory"], tuple(payload["args"]))
    encoded = encode(circuit)
    tr = TransitionRelation(encoded)
    init = encoded.initial_states()
    method = payload["method"]
    row = {
        "key": f"{payload.get('name', circuit.name)}/{method}",
        "circuit": circuit.name,
        "method": method,
        "ff": circuit.num_latches,
    }
    deadline = payload.get("deadline")
    on_blowup = payload.get("on_blowup", "raise")
    node_budget = payload.get("node_budget")
    step_budget = payload.get("step_budget")
    if node_budget is None and step_budget is None:
        budget = nullcontext()
    else:
        budget = encoded.manager.with_budget(node_budget=node_budget,
                                             step_budget=step_budget)
    if method == "bfs":
        try:
            with budget:
                result = bfs_reachability(tr, init, deadline=deadline,
                                          on_blowup=on_blowup)
        except TraversalLimit:
            row.update(states=None, traverse_seconds=None,
                       iterations=None, complete=False,
                       manager_stats=encoded.manager.stats.as_dict())
            return row
    else:
        threshold = payload.get("threshold", 0)
        quality = payload.get("quality", 1.0)
        if method == "rua":
            def subset(f, *, threshold=0):
                return remap_under_approx(f, threshold,
                                          quality=quality)
        elif method == "sp":
            def subset(f, *, threshold=0):
                return short_paths_subset(f, threshold)
        else:
            raise ValueError(f"unknown traversal method {method!r}")
        policy = None
        pimg = payload.get("pimg")
        if pimg is not None:
            policy = PartialImagePolicy(subset=subset,
                                        trigger=pimg[0],
                                        threshold=pimg[1])
        with budget:
            result = high_density_reachability(
                tr, init, subset, threshold=threshold, partial=policy,
                deadline=deadline, on_blowup=on_blowup)
    row.update(
        states=count_states(result.reached, encoded.state_vars),
        traverse_seconds=round(result.seconds, 3),
        iterations=result.iterations,
        complete=bool(result.complete),
        reached_nodes=len(result.reached),
        manager_stats=encoded.manager.stats.as_dict(),
    )
    return row
