"""Command-line tools: ``python -m repro <command>``.

Commands
--------
``info <circuit.blif>``
    Netlist statistics and BDD sizes of the next-state functions.
``reach <circuit.blif>``
    Reachability analysis (exact BFS or high-density with a chosen
    subsetting method); prints iterations, state count, BDD sizes.
``approx <circuit.blif>``
    Apply the approximation methods to every output/next-state function
    and print a Table-2-style comparison.
``decomp <circuit.blif>``
    Two-way decomposition of each output function by the three Table-4
    methods.
``save <circuit.blif> --store DIR``
    Encode the circuit and persist its functions into an on-disk BDD
    store (:mod:`repro.store`, ``docs/persistence.md``): level-ordered
    content-addressed objects plus an sqlite name index.
``load --store DIR [name]``
    Load a persisted function by name (``--list`` shows the index;
    ``--dump`` prints the textual node list); loading verifies CRC
    frames and the content address, so corruption is detected, never
    silently returned.
``serve``
    Run the BDD service daemon (:mod:`repro.serve`): a threaded server
    exposing the toolkit verbs as a newline-delimited JSON protocol
    with per-session managers, per-request governor budgets, and fair
    scheduling across sessions (see ``docs/serve.md``).
``call <verb> [params-json]``
    One-shot client for a running daemon: send one request, print the
    JSON result.  A structured ``budget`` error exits with status 3,
    matching the in-process governor convention.
``lint [paths...]``
    Run the BDD-aware static rules (:mod:`repro.analysis`) over source
    trees; exits non-zero on errors (or on any finding with
    ``--strict``).
``check <circuit.blif>``
    Encode the circuit and run the graph sanitizer
    (:meth:`~repro.bdd.manager.Manager.debug_check`) over the resulting
    manager; exits non-zero when any invariant is violated.

All commands read BLIF; the benchmark generators can export BLIF via
``repro.fsm.blif.write_blif`` for experimentation.

Runtime options shared by every command configure the manager's memory
policy and observability: ``--cache-limit`` bounds the computed table,
``--gc-threshold`` arms automatic garbage collection, ``--stats``
prints the :attr:`~repro.bdd.manager.Manager.stats` snapshot after the
command body, and ``--jobs`` (or ``REPRO_BENCH_JOBS``) fans per-function
work of ``approx``/``decomp`` over the parallel experiment engine —
each worker process re-reads the circuit and rebuilds its own BDDs.

Resource governor options (also shared): ``--node-budget``,
``--step-budget`` and ``--deadline`` arm a :class:`~repro.bdd.governor.
Budget` on the manager for the whole command; a kernel crossing a
budget aborts cleanly and the command exits with status 3.  ``reach``
additionally accepts ``--on-blowup raise|subset|retry-reorder`` to
degrade blowing-up image computations through the
:mod:`repro.reach.degrade` escalation ladder instead of failing.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .bdd.counting import density
from .bdd.governor import Budget, ResourceError
from .core.approx import UNDER_APPROXIMATORS
from .core.decomp import DECOMPOSERS, decompose
from .fsm.blif import BlifError, read_blif
from .fsm.encode import encode
from .harness.engine import Task, resolve_jobs, run_tasks
from .harness.tables import format_manager_stats, format_table
from .reach.bfs import bfs_reachability, count_states
from .reach.degrade import ON_BLOWUP_MODES
from .reach.highdensity import high_density_reachability
from .reach.transition import TransitionRelation
from .store.errors import StoreCorruptError, StoreError


def _load(args):
    """Read the circuit and encode it under the requested runtime policy."""
    circuit = read_blif(args.circuit)
    encoded = encode(circuit)
    manager = encoded.manager
    try:
        if getattr(args, "cache_limit", None) is not None:
            manager.set_cache_limit(args.cache_limit)
        if getattr(args, "gc_threshold", None) is not None:
            manager.gc_threshold = args.gc_threshold
        budget = Budget(node_budget=getattr(args, "node_budget", None),
                        step_budget=getattr(args, "step_budget", None),
                        deadline=getattr(args, "deadline", None))
        if not budget.unbounded:
            # Armed for the process lifetime: CLI commands are one-shot,
            # so there is no enclosing scope to restore the budget to.
            manager.governor.arm(budget)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    return circuit, encoded


def _finish(args, encoded) -> None:
    """Shared epilogue: print the manager runtime stats when asked."""
    if getattr(args, "stats", False):
        print()
        print(format_manager_stats(encoded.manager.stats))


def cmd_info(args) -> int:
    circuit, encoded = _load(args)
    print(f"model:   {circuit.name}")
    print(f"inputs:  {len(circuit.inputs)}")
    print(f"latches: {circuit.num_latches}")
    print(f"outputs: {len(circuit.outputs)}")
    rows = [[name, len(delta), f"{density(delta):.2f}"]
            for name, delta in zip(encoded.state_vars,
                                   encoded.next_functions)]
    print(format_table(["latch", "|delta|", "density"], rows,
                       title="next-state functions"))
    _finish(args, encoded)
    return 0


def _reach_checkpointer(args, circuit):
    """Build the optional checkpointer for ``repro reach``.

    The spec digest pins the checkpoint to this exact problem (circuit
    bytes, method, threshold, clustering, degradation policy); resuming
    into a different problem is refused with a structured error instead
    of silently blending two traversals.
    """
    if args.checkpoint is None:
        if args.resume:
            raise SystemExit("repro: --resume requires --checkpoint DIR")
        return None
    import hashlib
    from pathlib import Path

    from .store.checkpoint import ReachCheckpointer, reach_spec
    from .store.store import BDDStore

    circuit_digest = hashlib.sha256(
        Path(args.circuit).read_bytes()).hexdigest()
    spec = reach_spec(circuit_digest, args.method, args.threshold,
                      args.cluster_limit, args.on_blowup)
    store = BDDStore(args.checkpoint)
    name = f"reach/{circuit.name}/{args.method}"
    try:
        return ReachCheckpointer(store, name,
                                 every=args.checkpoint_every,
                                 spec=spec, resume=args.resume)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def cmd_reach(args) -> int:
    circuit, encoded = _load(args)
    # Under a degradation policy the budget governs the traversal: the
    # escalation ladder has no recovery for an abort during setup
    # (clustering, initial states), so setup runs unbudgeted.
    setup = nullcontext() if args.on_blowup == "raise" \
        else encoded.manager.governor.suspended()
    with setup:
        tr = TransitionRelation(encoded,
                                cluster_limit=args.cluster_limit)
        init = encoded.initial_states()
    checkpointer = _reach_checkpointer(args, circuit)
    if args.method == "bfs":
        result = bfs_reachability(tr, init,
                                  max_iterations=args.max_iterations,
                                  on_blowup=args.on_blowup,
                                  checkpointer=checkpointer)
    else:
        subset = UNDER_APPROXIMATORS[args.method]
        result = high_density_reachability(
            tr, init, subset, threshold=args.threshold,
            max_iterations=args.max_iterations,
            on_blowup=args.on_blowup, checkpointer=checkpointer)
    states = count_states(result.reached, encoded.state_vars)
    print(f"method:     {args.method}")
    print(f"iterations: {result.iterations}")
    print(f"complete:   {result.complete}")
    print(f"states:     {states}")
    print(f"|reached|:  {len(result.reached)} nodes")
    print(f"time:       {result.seconds:.2f}s")
    stats = encoded.manager.stats
    if stats.total_aborts or stats.total_degradations:
        print(f"governor:   {stats.total_aborts} abort(s), "
              f"{stats.total_degradations} degradation(s)")
    if checkpointer is not None:
        print(f"checkpoint: {checkpointer.name} "
              f"({checkpointer.saves} save(s) this run)")
    _finish(args, encoded)
    return 0


def cmd_save(args) -> int:
    from .store.store import BDDStore

    circuit, encoded = _load(args)
    store = BDDStore(args.store)
    functions = []
    if args.functions in ("outputs", "all"):
        functions += [(f"{circuit.name}/output/{name}", f)
                      for name, f in encoded.output_functions.items()]
    if args.functions in ("next", "all"):
        functions += [(f"{circuit.name}/next/{name}", f)
                      for name, f in zip(encoded.state_vars,
                                         encoded.next_functions)]
    if not functions:
        print(f"{circuit.name} has no {args.functions} functions")
        return 1
    rows = [[name, len(f), store.save(name, f, tags=args.tag)[:12]]
            for name, f in functions]
    print(format_table(["name", "nodes", "object"], rows,
                       title=f"saved to {store.root}"))
    _finish(args, encoded)
    return 0


def cmd_load(args) -> int:
    from .bdd.io import dump
    from .bdd.manager import Manager
    from .store.store import BDDStore

    store = BDDStore(args.store, create=False)
    if args.list or args.name is None:
        entries = store.entries(prefix=args.name or "")
        if not entries:
            print("store is empty" if not args.name
                  else f"no entries under {args.name!r}")
            return 1
        rows = [[e["name"], e["nodes"], e["vars"],
                 ",".join(e["tags"]) or "-", e["hash"][:12]]
                for e in entries]
        print(format_table(["name", "nodes", "vars", "tags", "object"],
                           rows, title=str(store.root)))
        return 0
    manager = Manager()
    function = store.load(manager, args.name)
    if args.dump:
        sys.stdout.write(dump(function))
        return 0
    print(f"name:     {args.name}")
    print(f"nodes:    {len(function)}")
    print(f"vars:     {manager.num_vars}")
    print(f"minterms: {function.sat_count()}")
    return 0


def _parse_methods(spec: str) -> list[str]:
    """Validate a comma-separated method list against the registry."""
    if spec == "all":
        return list(UNDER_APPROXIMATORS)
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    unknown = [m for m in methods if m not in UNDER_APPROXIMATORS]
    if unknown or not methods:
        known = ",".join(UNDER_APPROXIMATORS)
        raise SystemExit(f"unknown approximation methods "
                         f"{unknown or [spec]!r}; choose from: {known}")
    return methods


def _rebuild_function(payload):
    """Worker-side rebuild: re-read the circuit, pick one function.

    BDDs cannot cross process boundaries, so each engine worker
    reconstructs its slice from the (path, kind, name) spec — the same
    rebuild model the benchmark population uses.
    """
    path, kind, name, cache_limit, gc_threshold, node_budget, \
        step_budget = payload
    encoded = encode(read_blif(path))
    if cache_limit is not None:
        encoded.manager.set_cache_limit(cache_limit)
    if gc_threshold is not None:
        encoded.manager.gc_threshold = gc_threshold
    budget = Budget(node_budget=node_budget, step_budget=step_budget)
    if not budget.unbounded:
        encoded.manager.governor.arm(budget)
    if kind == "delta":
        f = dict(zip(encoded.state_vars, encoded.next_functions))[name]
    else:
        f = encoded.output_functions[name]
    return f


def _approx_worker(payload):
    base, methods, threshold = payload
    f = _rebuild_function(base)
    cells = []
    for method in methods:
        result = UNDER_APPROXIMATORS[method](f, threshold=threshold)
        cells.append((len(result), density(result)))
    return {"f_nodes": len(f), "cells": cells}


def _decomp_worker(payload):
    f = _rebuild_function(payload)
    cells = []
    for method in DECOMPOSERS:
        g, h = decompose(f, method)
        if not (g & h) == f:
            raise AssertionError(f"{method} broke f = g*h")
        cells.append((len(g), len(h)))
    return {"f_nodes": len(f), "cells": cells}


def _fan_out(args, worker, selected, make_payload):
    """Run per-function tasks through the experiment engine.

    Returns (key -> result, failures).  ``selected`` is a list of
    (kind, name) pairs; the order of the returned rows follows it.
    """
    tasks = [Task(f"{kind}:{name}", make_payload(kind, name))
             for kind, name in selected]
    run = run_tasks(worker, tasks, jobs=resolve_jobs(args.jobs))
    for outcome in run.failures:
        print(f"repro: task {outcome.key} failed "
              f"({outcome.status}): {outcome.error}", file=sys.stderr)
    return run.results(), run.failures


def cmd_approx(args) -> int:
    circuit, encoded = _load(args)
    methods = _parse_methods(args.methods)
    functions = [("delta", name, f)
                 for name, f in zip(encoded.state_vars,
                                    encoded.next_functions)]
    functions += [("output", name, f)
                  for name, f in encoded.output_functions.items()]
    selected = [(kind, name, f) for kind, name, f in functions
                if len(f) >= args.min_nodes]
    if not selected:
        print(f"no function has >= {args.min_nodes} nodes")
        return 1
    failures = []
    if resolve_jobs(args.jobs) > 1:
        results, failures = _fan_out(
            args, _approx_worker, [(k, n) for k, n, _ in selected],
            lambda kind, name: ((args.circuit, kind, name,
                                 args.cache_limit, args.gc_threshold,
                                 args.node_budget, args.step_budget),
                                tuple(methods), args.threshold))
        rows = []
        for kind, name, f in selected:
            result = results.get(f"{kind}:{name}")
            if result is None:
                continue
            rows.append([name, result["f_nodes"]]
                        + [f"{n}/{d:.1f}" for n, d in result["cells"]])
    else:
        rows = []
        for kind, name, f in selected:
            row = [name, len(f)]
            for method in methods:
                result = UNDER_APPROXIMATORS[method](
                    f, threshold=args.threshold)
                row.append(f"{len(result)}/{density(result):.1f}")
            rows.append(row)
    if rows:
        print(format_table(
            ["function", "|f|"] + [m.upper() for m in methods], rows,
            title="approximation comparison (nodes/density)"))
    _finish(args, encoded)
    return 1 if failures else 0


def cmd_decomp(args) -> int:
    circuit, encoded = _load(args)
    selected = [("output", name, f)
                for name, f in encoded.output_functions.items()
                if not f.is_constant]
    if not selected:
        print("no non-constant outputs to decompose")
        return 1
    failures = []
    if resolve_jobs(args.jobs) > 1:
        results, failures = _fan_out(
            args, _decomp_worker, [(k, n) for k, n, _ in selected],
            lambda kind, name: (args.circuit, kind, name,
                                args.cache_limit, args.gc_threshold,
                                args.node_budget, args.step_budget))
        rows = []
        for kind, name, f in selected:
            result = results.get(f"{kind}:{name}")
            if result is None:
                continue
            rows.append([name, result["f_nodes"]]
                        + [f"{g}/{h}" for g, h in result["cells"]])
    else:
        rows = []
        for kind, name, f in selected:
            row = [name, len(f)]
            for method in DECOMPOSERS:
                g, h = decompose(f, method)
                if not (g & h) == f:
                    raise AssertionError(f"{method} broke f = g*h")
                row.append(f"{len(g)}/{len(h)}")
            rows.append(row)
    if rows:
        print(format_table(
            ["output", "|f|"] + [m.capitalize() for m in DECOMPOSERS],
            rows, title="two-way conjunctive decompositions (|G|/|H|)"))
    _finish(args, encoded)
    return 1 if failures else 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis import (DEFAULT_BASELINE, RULES, apply_baseline,
                           exit_code, lint_paths, load_baseline,
                           render_json, render_sarif, render_text,
                           write_baseline)
    if args.write_baseline and not args.baseline:
        args.baseline = DEFAULT_BASELINE
    for option, ids in (("--select", args.select),
                        ("--ignore", args.ignore)):
        unknown = [r for r in ids or () if r not in RULES]
        if unknown:
            raise SystemExit(
                f"repro: unknown rules {unknown!r} for {option}; "
                f"available: {','.join(sorted(RULES))}")
    violations = lint_paths(args.paths, rules=args.select,
                            ignore=args.ignore)
    if args.write_baseline:
        count = write_baseline(args.baseline, violations)
        print(f"repro lint: wrote {count} baseline entr"
              f"{'y' if count == 1 else 'ies'} to {args.baseline}")
        return 0
    baselined = 0
    if args.baseline and Path(args.baseline).exists():
        try:
            entries = load_baseline(args.baseline)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}")
        violations, baselined = apply_baseline(violations, entries)
    if args.format == "json":
        document = render_json(violations, baselined=baselined)
    elif args.format == "sarif":
        document = render_sarif(violations)
    else:
        document = render_text(violations)
        if baselined:
            document += f"\n{baselined} baselined finding(s) filtered"
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
    else:
        print(document)
    return exit_code(violations, strict=args.strict)


def cmd_check(args) -> int:
    circuit, encoded = _load(args)
    manager = encoded.manager
    diagnostics = manager.debug_check(raise_on_error=False)
    nodes = len(manager)
    if diagnostics:
        for diagnostic in diagnostics:
            print(f"repro check: {diagnostic}", file=sys.stderr)
        print(f"FAILED: {len(diagnostics)} invariant violation(s) in "
              f"{nodes} nodes ({circuit.name})")
        return 1
    print(f"OK: {nodes} nodes, "
          f"{len(encoded.state_vars)} latches ({circuit.name})")
    _finish(args, encoded)
    return 0


def cmd_serve(args) -> int:
    from .serve.server import Server, serve_main

    try:
        server = Server(
            host=args.host, port=args.port,
            cache_limit=args.cache_limit,
            gc_threshold=args.gc_threshold,
            node_budget=args.node_budget,
            step_budget=args.step_budget, deadline=args.deadline,
            workers=args.workers, max_sessions=args.max_sessions,
            store=args.store, snapshot=args.snapshot)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    try:
        serve_main(server, ready=lambda line: print(line, flush=True))
    except KeyboardInterrupt:  # a second interrupt during shutdown
        pass
    return 0


def cmd_call(args) -> int:
    from .serve.client import Client, ServerError

    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"repro: params is not JSON: {exc}")
        if not isinstance(params, dict):
            raise SystemExit("repro: params must be a JSON object")
    budget = {key: value for key, value in
              (("node", args.node_budget), ("step", args.step_budget),
               ("deadline", args.deadline)) if value is not None}
    try:
        with Client(args.host, args.port,
                    connect_timeout=args.connect_timeout,
                    read_timeout=args.read_timeout) as client:
            result = client.call(args.verb, params,
                                 budget=budget or None)
    except ServerError as exc:
        print(f"repro call: {exc}", file=sys.stderr)
        return 3 if exc.is_budget else 1
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"repro: cannot reach {args.host}:{args.port}: {exc}")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDD approximation/decomposition toolkit "
                    "(DAC 1998 reproduction)")
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument("--stats", action="store_true",
                         help="print manager cache/GC statistics after "
                              "the command")
    runtime.add_argument("--cache-limit", type=int, default=None,
                         help="bound the computed table to this many "
                              "entries (default: unbounded)")
    runtime.add_argument("--gc-threshold", type=int, default=None,
                         help="enable automatic GC above this many live "
                              "nodes (default: disabled)")
    runtime.add_argument("--jobs", type=int, default=None,
                         help="worker processes for per-function fan-out "
                              "(default: REPRO_BENCH_JOBS or 1; <=0 "
                              "means all cores)")
    runtime.add_argument("--node-budget", type=int, default=None,
                         help="abort any kernel once the manager holds "
                              "more live nodes than this (default: "
                              "unbounded)")
    runtime.add_argument("--step-budget", type=int, default=None,
                         help="abort after this many kernel operation "
                              "steps (default: unbounded)")
    runtime.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget in seconds for the "
                              "whole command's kernel work (default: "
                              "unbounded)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[runtime],
                            help="netlist and BDD statistics")
    p_info.add_argument("circuit", help="BLIF file")
    p_info.set_defaults(func=cmd_info)

    p_reach = sub.add_parser("reach", parents=[runtime],
                             help="reachability analysis")
    p_reach.add_argument("circuit", help="BLIF file")
    p_reach.add_argument("--method", default="bfs",
                         choices=["bfs"] + sorted(UNDER_APPROXIMATORS))
    p_reach.add_argument("--threshold", type=int, default=0,
                         help="subsetting threshold (high-density)")
    p_reach.add_argument("--max-iterations", type=int, default=None)
    p_reach.add_argument("--cluster-limit", type=int, default=2500)
    p_reach.add_argument("--on-blowup", default="raise",
                         choices=list(ON_BLOWUP_MODES),
                         help="reaction to governor aborts during the "
                              "traversal: fail (raise), degrade to "
                              "subsetted images (subset), or sift then "
                              "retry (retry-reorder)")
    p_reach.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="persist the traversal state to a BDD "
                              "store in DIR every --checkpoint-every "
                              "iterations; a killed run restarted with "
                              "--resume continues from the last "
                              "checkpoint and produces a byte-"
                              "identical reached set "
                              "(docs/persistence.md)")
    p_reach.add_argument("--checkpoint-every", type=int, default=1,
                         metavar="N",
                         help="checkpoint cadence in iterations "
                              "(default: 1)")
    p_reach.add_argument("--resume", action="store_true",
                         help="resume from the checkpoint in "
                              "--checkpoint DIR if one exists (the "
                              "problem spec is verified first)")
    p_reach.set_defaults(func=cmd_reach)

    p_save = sub.add_parser(
        "save", parents=[runtime],
        help="persist a circuit's functions to an on-disk BDD store")
    p_save.add_argument("circuit", help="BLIF file")
    p_save.add_argument("--store", required=True, metavar="DIR",
                        help="store directory (created if missing)")
    p_save.add_argument("--functions", default="outputs",
                        choices=["outputs", "next", "all"],
                        help="which functions to save: the outputs, "
                             "the next-state functions, or both "
                             "(default: outputs)")
    p_save.add_argument("--tag", action="append", default=[],
                        metavar="TAG",
                        help="attach a tag to every saved entry "
                             "(repeatable)")
    p_save.set_defaults(func=cmd_save)

    p_load = sub.add_parser(
        "load",
        help="load or list functions from an on-disk BDD store")
    p_load.add_argument("name", nargs="?", default=None,
                        help="entry name to load; omitted or with "
                             "--list, list the index instead (the "
                             "name then filters by prefix)")
    p_load.add_argument("--store", required=True, metavar="DIR",
                        help="store directory")
    p_load.add_argument("--list", action="store_true",
                        help="list index entries instead of loading")
    p_load.add_argument("--dump", action="store_true",
                        help="print the loaded function as a textual "
                             "node list (repro.bdd.io format)")
    p_load.set_defaults(func=cmd_load)

    p_approx = sub.add_parser("approx", parents=[runtime],
                              help="compare approximation methods")
    p_approx.add_argument("circuit", help="BLIF file")
    p_approx.add_argument("--threshold", type=int, default=0)
    p_approx.add_argument("--min-nodes", type=int, default=10)
    p_approx.add_argument("--methods", default="all",
                          help="comma-separated registry methods "
                               f"({','.join(UNDER_APPROXIMATORS)}) or "
                               "'all'")
    p_approx.set_defaults(func=cmd_approx)

    p_decomp = sub.add_parser("decomp", parents=[runtime],
                              help="compare decomposition methods")
    p_decomp.add_argument("circuit", help="BLIF file")
    p_decomp.set_defaults(func=cmd_decomp)

    p_serve = sub.add_parser(
        "serve", help="run the BDD service daemon (docs/serve.md)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port; 0 picks an ephemeral port "
                              "and prints it (default: 0)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="sessions whose kernel calls may run at "
                              "once, granted round-robin (default: 1)")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="concurrent session bound; excess "
                              "connections get a structured overload "
                              "error (default: 64)")
    p_serve.add_argument("--cache-limit", type=int, default=None,
                         help="computed-table bound per session "
                              "manager (default: unbounded)")
    p_serve.add_argument("--gc-threshold", type=int, default=None,
                         help="automatic-GC threshold per session "
                              "manager (default: disabled)")
    p_serve.add_argument("--node-budget", type=int, default=None,
                         help="default per-request node budget "
                              "(default: unbounded)")
    p_serve.add_argument("--step-budget", type=int, default=None,
                         help="default per-request kernel-step budget "
                              "(default: unbounded)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="default per-request wall-clock budget "
                              "in seconds (default: unbounded)")
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="attach an on-disk BDD store: sessions "
                              "gain save/load verbs for persisting "
                              "and restoring warm handles "
                              "(docs/persistence.md)")
    p_serve.add_argument("--snapshot", action="store_true",
                         help="snapshot every live session's handles "
                              "to the --store on clean shutdown "
                              "(restored on the next boot via load)")
    p_serve.set_defaults(func=cmd_serve)

    p_call = sub.add_parser(
        "call", help="send one request to a running repro serve")
    p_call.add_argument("verb", help="protocol verb (var, apply, ite, "
                                     "approx, decomp, reach, check, "
                                     "count, minterms, release, "
                                     "stats, health)")
    p_call.add_argument("params", nargs="?", default=None,
                        help="verb parameters as a JSON object")
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", type=int, required=True)
    p_call.add_argument("--connect-timeout", type=float, default=10.0,
                        help="seconds to retry a refused connection "
                             "(covers daemon boot; default: 10)")
    p_call.add_argument("--read-timeout", type=float, default=None,
                        help="seconds to wait for the response line; "
                             "a hung server fails cleanly instead of "
                             "blocking (default: the client's 60s "
                             "socket timeout)")
    p_call.add_argument("--node-budget", type=int, default=None,
                        help="per-request node budget")
    p_call.add_argument("--step-budget", type=int, default=None,
                        help="per-request kernel-step budget")
    p_call.add_argument("--deadline", type=float, default=None,
                        help="per-request wall-clock budget (seconds)")
    p_call.set_defaults(func=cmd_call)

    p_lint = sub.add_parser(
        "lint", help="run the BDD-aware static rules (RPR001..RPR011)")
    p_lint.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directory trees to lint "
                             "(default: src tests)")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text")
    rule_list = lambda s: [r.strip() for r in s.split(",") if r.strip()]
    p_lint.add_argument("--select", "--rules", dest="select",
                        default=None, type=rule_list,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    p_lint.add_argument("--ignore", default=None, type=rule_list,
                        help="comma-separated rule ids to skip")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    p_lint.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file of accepted findings to "
                             "filter out before the exit-code gate "
                             "(a missing file is an empty baseline)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="write every current finding to the "
                             "--baseline file and exit 0")
    p_lint.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of "
                             "stdout (e.g. the CI SARIF artifact)")
    p_lint.set_defaults(func=cmd_lint)

    p_check = sub.add_parser(
        "check", parents=[runtime],
        help="build BDDs for a circuit and run the graph sanitizer")
    p_check.add_argument("circuit", help="BLIF file")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        # A governor abort escaped the command body (no --on-blowup
        # degradation applies, e.g. `approx --node-budget`).  The
        # kernels unwound cleanly; report the budget and exit 3 so
        # scripts can tell "over budget" from ordinary failures.
        print(f"repro: resource budget exhausted: {exc}",
              file=sys.stderr)
        return 3
    except StoreError as exc:
        # Store misuse (unknown name, spec mismatch) exits 1; detected
        # corruption (failed CRC/content address) exits 4 so scripts
        # can tell "bad store" from "bad invocation".
        print(f"repro: store: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, StoreCorruptError) else 1
    except BlifError as exc:
        # Only the circuit argument is parsed as BLIF.
        print(f"repro: {args.circuit}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # An input file that cannot be read (missing, a directory, no
        # permission) is a bad invocation too; an OSError not tied to
        # a file, such as a socket bind, keeps its traceback.
        if exc.filename is None:
            raise
        print(f"repro: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
