"""The three workloads of the benchmark of record.

A workload runs in *passes*, each in a fresh interpreter
(``onepass.py``).  One pass sets up from scratch (fresh managers, or a
fresh daemon), does the workload's fixed work once, and returns a
:class:`PassResult`: the latency of every *step*, the counters of the
per-layer table, and the raw outputs.  The pass marks where its timed
region begins and ends and every step boundary on the
:class:`Context`, whose :class:`~hostspeed.HostMeter` times set-up and
solve.  The outputs are checked after the pass, outside every timed
region and with tracing off.

A step is the smallest unit of work a user waits for: one iteration of
a reachability fixpoint, one (function, method) call of the table
sweep, one request to the daemon.  Every step is *light* or *heavy*:

* reach: iterations of the circuits whose fixpoint takes many cheap
  images are light; those of ``am2910``, whose few images take hundreds
  of milliseconds, are heavy;
* tables: approximation calls are light, decomposition calls heavy;
* serve: ``var`` and ``apply`` requests are light, all others heavy.

The inputs are sized so that a pass takes 6-10 s on a 2-vCPU VM and
three to six passes fit one run; the seed drives the random DNF
draws of ``tables`` and the request script of ``serve``, while the
reach circuits are fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

from common import ROOT, SRC, WORK, vm_hwm_mb
from hostspeed import HostMeter
from tracer import Tracer

from repro.bdd.backend import resolve_backend
from repro.core.approx import (bdd_under_approx, c1, c2,
                               heavy_branch_subset, remap_under_approx,
                               short_paths_subset)
from repro.core.decomp import DECOMPOSERS, decompose
from repro.fsm.benchmarks import shift_queue
from repro.fsm.blif import write_blif
from repro.fsm.encode import encode
from repro.harness.population import (build_entries, make_circuit,
                                      population_specs)
from repro.reach import (TransitionRelation, bfs_reachability, count_states,
                         high_density_reachability)
from repro.serve.client import Client, ServerError
from repro.serve.session import Session, SessionConfig
from repro.store.format import content_address, encode_roots
from repro.store.store import BDDStore


@dataclass
class PassResult:
    """What one pass hands back to the runner."""

    #: set-up and solve time, normalised to the nominal host speed
    #: (:mod:`hostspeed`), and as measured (set by ``onepass.py``)
    setup_s: float = 0.0
    solve_s: float = 0.0
    setup_wall_s: float = 0.0
    solve_wall_s: float = 0.0
    #: median reference-loop time over the pass, in milliseconds
    ref_ms: float = 0.0
    #: latency of every light and every heavy step, in seconds
    light: list[float] = field(default_factory=list)
    heavy: list[float] = field(default_factory=list)
    attempted: int = 0
    #: operations that raised or got an error response
    failed: int = 0
    #: maximum ManagerStats.peak_nodes over the pass's managers
    peak_nodes: int = 0
    #: peak resident MiB of the daemon the pass started; ``onepass.py``
    #: sets its own VmHWM for in-process workloads
    rss_mb: float = 0.0
    #: per-layer counters (deterministic for a given input)
    counters: dict[str, float] = field(default_factory=dict)
    #: raw outputs, checked by :meth:`Workload.check` after the pass
    outputs: Any = None
    #: informational numbers that are not metrics of the benchmark
    extra: dict[str, Any] = field(default_factory=dict)
    #: wall time of the whole pass and whether it was traced (runner)
    wall_s: float = 0.0
    traced: bool = False


class Context:
    """Per-pass settings: the seed, the pass index, the tracer, and the
    host meter that times the set-up and solve phases."""

    def __init__(self, seed: int, index: int, tracer: Tracer | None,
                 meter: HostMeter) -> None:
        self.seed = seed
        self.index = index
        self.tracer = tracer
        self.meter = meter

    def span(self, name: str, trace: str | None = None) -> ContextManager:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, trace)

    def begin_solve(self) -> None:
        """Set-up ends and the timed region begins."""
        self.meter.cut("solve")

    def step(self) -> None:
        """A step of the timed region ended: time the reference loop
        if the segment is long enough (in its own span when traced)."""
        if self.meter.due():
            with self.span("bench.meter"):
                self.meter.cut()

    def end_solve(self) -> None:
        self.meter.cut("after")


def bdd_counters(managers: list[Any]) -> dict[str, int]:
    """Kernel work counters summed over distinct managers."""
    totals = {"steps": 0, "cache_lookups": 0, "cache_hits": 0,
              "gc_count": 0}
    for manager in {id(m): m for m in managers}.values():
        stats = manager.stats
        totals["steps"] += manager.governor.steps
        totals["cache_hits"] += stats.cache_hits
        totals["cache_lookups"] += stats.cache_hits + stats.cache_misses
        totals["gc_count"] += stats.gc_count
    return totals


def counter_delta(after: dict[str, int],
                  before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def digest(value: Any) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Approximators, as tables and the high-density traversals call them
# ----------------------------------------------------------------------

def _rua(f: Any, budget: int) -> Any:
    return remap_under_approx(f, 0, quality=1.0)


def _hb(f: Any, budget: int) -> Any:
    return heavy_branch_subset(f, budget)


def _sp(f: Any, budget: int) -> Any:
    return short_paths_subset(f, budget)


def _ua(f: Any, budget: int) -> Any:
    return bdd_under_approx(f, 0)


def _c1(f: Any, budget: int) -> Any:
    return c1(f)


def _c2(f: Any, budget: int) -> Any:
    return c2(f, sp_threshold=budget)


#: The approximators as the benchmark calls them, ``fn(f, budget)``.
#: RUA, UA and C1 run at threshold 0 with quality 1 and ignore the
#: budget; HB, SP and C2's intermediate SP get the RUA result size (the
#: paper's protocol, as in ``repro.harness.experiments``).  The table
#: is the benchmark's own so the traced run can wrap it.
APPROXIMATORS: dict[str, Callable[[Any, int], Any]] = {
    "rua": _rua, "hb": _hb, "sp": _sp, "ua": _ua, "c1": _c1, "c2": _c2,
}


# ----------------------------------------------------------------------
# Reachability: exact BFS and high-density traversals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Traversal:
    """One circuit traversed to its exact fixpoint."""

    factory: str
    args: tuple
    #: "bfs", or the approximator feeding the high-density traversal
    method: str = "bfs"
    threshold: int = 0
    #: whether its iterations count as heavy steps
    heavy: bool = False

    @property
    def label(self) -> str:
        return f"{self.factory}({','.join(map(str, self.args))})"


class StepClock:
    """Times each fixpoint iteration through the traversal's
    ``checkpointer`` hook, which the traversals call once per
    iteration; it never saves or resumes anything."""

    def __init__(self, steps: list[float], ctx: Context) -> None:
        self.steps = steps
        self.ctx = ctx
        self.last = 0.0

    def load(self, manager: Any) -> None:
        self.last = time.perf_counter()
        return None

    def step(self, roots: dict, meta: dict) -> None:
        self.steps.append(time.perf_counter() - self.last)
        self.ctx.step()
        self.last = time.perf_counter()

    def finish(self, roots: dict, meta: dict) -> None:
        return None


def _subsetter(method: str, tracer: Tracer | None) -> Callable[..., Any]:
    def subset(f: Any, *, threshold: int = 0) -> Any:
        return APPROXIMATORS[method](f, threshold)

    if tracer is None:
        return subset
    return tracer.wrap("reach.subset", subset)


def reach_digest(reached: Any) -> str:
    """Canonical content address of a reached set (backend-neutral)."""
    return content_address(encode_roots(reached.manager,
                                        {"reached": reached}))


def check_reach(records: list[tuple[str, str, int]],
                expected: dict[str, dict]) -> list[str]:
    """Failures among ``(label, digest, states)`` traversal records.

    ``expected`` maps circuit labels to their recorded digest and state
    count, so a circuit traversed both ways (BFS and high density) must
    reach the same set each way.
    """
    failures = []
    for label, found, states in records:
        want = expected.get(label)
        if want is None:
            failures.append(f"{label}: no recorded digest")
        elif found != want["digest"]:
            failures.append(f"{label}: reached-set digest {found[:12]} "
                            f"!= recorded {want['digest'][:12]}")
        elif states != want["states"]:
            failures.append(f"{label}: {states} states != recorded "
                            f"{want['states']}")
    return failures


class ReachWorkload:
    """Exact reachability of fixed circuits: exact BFS on two, and
    high-density traversal with the circuit's Table 1 winner on two
    (``am2910`` both ways, so its two traversals must agree)."""

    name = "reach"
    in_process = True
    traversals = (
        Traversal("serial_multiplier", (7,)),
        Traversal("am2910", (4, 3), heavy=True),
        Traversal("shift_queue", (5, 3), "rua"),
        Traversal("am2910", (4, 3), "sp", threshold=150, heavy=True),
    )

    def run_pass(self, ctx: Context) -> PassResult:
        result = PassResult()
        counters: dict[str, float] = {}
        outputs = []
        problems = []
        for item in self.traversals:
            trace = f"{self.name}/{item.method}/{item.label}"
            with ctx.span("bench.setup", trace):
                encoded = encode(make_circuit(item.factory, item.args))
                problems.append((item, trace, encoded,
                                 TransitionRelation(encoded),
                                 encoded.initial_states()))
        ctx.begin_solve()
        for item, trace, encoded, tr, init in problems:
            manager = encoded.manager
            before = bdd_counters([manager])
            clock = StepClock(result.heavy if item.heavy else result.light,
                              ctx)
            result.attempted += 1
            with ctx.span("bench.solve", trace):
                if item.method == "bfs":
                    run = bfs_reachability(tr, init, checkpointer=clock)
                else:
                    run = high_density_reachability(
                        tr, init, _subsetter(item.method, ctx.tracer),
                        threshold=item.threshold, checkpointer=clock)
            stats = manager.stats
            result.peak_nodes = max(result.peak_nodes, stats.peak_nodes)
            for key, value in counter_delta(bdd_counters([manager]),
                                            before).items():
                _add(counters, f"bdd.{key}", value)
            _add(counters, "reach.images", tr.stats.images)
            _add(counters, "reach.iterations", run.iterations)
            _add(counters, "reach.recoveries",
                 getattr(run, "recoveries", 0))
            counters["reach.peak_product_nodes"] = max(
                counters.get("reach.peak_product_nodes", 0),
                tr.stats.peak_product_nodes)
            outputs.append((item.label, run.reached, encoded.state_vars))
        ctx.end_solve()
        result.counters = counters
        result.outputs = outputs
        return result

    def check(self, outputs: list, seed: int,
              expected: dict) -> tuple[list[str], dict]:
        records = [(label, reach_digest(reached),
                    count_states(reached, state_vars))
                   for label, reached, state_vars in outputs]
        found = {label: {"digest": found, "states": states}
                 for label, found, states in records}
        return check_reach(records, expected["reach"]), found


def _add(counters: dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


# ----------------------------------------------------------------------
# Tables 2-4: approximation and decomposition sweep
# ----------------------------------------------------------------------

#: Population slices left out of the sweep.  The two large adders hold
#: a 32k- and a 131k-node carry whose approximations alone take about
#: 12 s; the pipeline, comm-controller, serial-multiplier and am2910
#: traversals spend 0.2-1.5 s of set-up each on a few small snapshots.
#: Without them three passes fit the run window even on a slow host.
TABLES_SKIP = frozenset({"adder_carry14", "adder_carry16",
                         "trav_pipeline_controller_3x4",
                         "trav_comm_controller_10x2",
                         "trav_serial_multiplier_7",
                         "trav_am2910_4x3"})
#: Population node threshold (the paper used 5000 on a C package).
TABLES_MIN_NODES = 300


def table_row(name: str, f: Any, results: dict[str, Any],
              factors: dict[str, tuple[Any, Any]]) -> tuple[dict,
                                                            list[str]]:
    """One function's row and its contract violations."""
    nvars = f.manager.num_vars
    row: dict[str, Any] = {"name": name, "nodes": len(f)}
    failures = []
    for method, g in results.items():
        if not g <= f:
            failures.append(f"{name}: {method} is not below f")
        row[f"{method}_nodes"] = len(g)
        row[f"{method}_minterms"] = g.sat_count(nvars)
    if "c1" in results and "rua" in results \
            and row["c1_minterms"] < row["rua_minterms"]:
        failures.append(f"{name}: C1 keeps fewer minterms than RUA")
    for method, (g, h) in factors.items():
        if (g & h) != f:
            failures.append(f"{name}: {method} factors do not conjoin "
                            f"to f")
        row[f"{method}_g"] = len(g)
        row[f"{method}_h"] = len(h)
    return row, failures


def check_digest(kind: str, found: Any, seed: int,
                 expected: dict) -> list[str]:
    """Compare against the digest recorded for ``seed``, if any."""
    want = expected[kind].get(str(seed))
    if want is None or found == want:
        return []
    return [f"{kind}: digest {found} != recorded {want} for seed {seed}"]


class TablesWorkload:
    """HB, SP, UA, RUA, C1 and C2 on every function of the population,
    and the three decompositions on every function below the cap."""

    name = "tables"
    in_process = True
    #: decompositions skip larger functions (the paper's Table 4 also
    #: splits its population by size)
    decomp_cap = 20000

    def run_pass(self, ctx: Context) -> PassResult:
        result = PassResult()
        specs = [spec for spec in population_specs(ctx.seed)
                 if spec.name not in TABLES_SKIP]
        with ctx.span("bench.setup", "tables/population"):
            entries = [entry for spec in specs
                       for entry in build_entries(
                           spec, min_nodes=TABLES_MIN_NODES)]
        managers = [entry.function.manager for entry in entries]
        before = bdd_counters(managers)
        outputs = []
        ctx.begin_solve()
        with ctx.span("bench.solve", "tables"):
            for entry in entries:
                with ctx.span("bench.function", f"tables/{entry.name}"):
                    outputs.append(self._sweep(ctx, entry, result))
        ctx.end_solve()
        result.counters = {f"bdd.{key}": value for key, value in
                           counter_delta(bdd_counters(managers),
                                         before).items()}
        result.peak_nodes = max(m.stats.peak_nodes for m in managers)
        result.outputs = outputs
        return result

    def _sweep(self, ctx: Context, entry: Any, result: PassResult) -> tuple:
        f = entry.function
        results: dict[str, Any] = {}
        factors: dict[str, tuple[Any, Any]] = {}
        budget = 1
        for method, approximate in APPROXIMATORS.items():
            result.attempted += 1
            began = time.perf_counter()
            try:
                results[method] = approximate(f, budget)
            except Exception:
                result.failed += 1
                continue
            finally:
                result.light.append(time.perf_counter() - began)
                ctx.step()
            if method == "rua":
                budget = max(1, len(results[method]))
        if len(f) < self.decomp_cap:
            for method in DECOMPOSERS:
                result.attempted += 1
                began = time.perf_counter()
                try:
                    factors[method] = decompose(f, method)
                except Exception:
                    result.failed += 1
                    continue
                finally:
                    result.heavy.append(time.perf_counter() - began)
                    ctx.step()
        return entry.name, f, results, factors

    def check(self, outputs: list, seed: int,
              expected: dict) -> tuple[list[str], str]:
        rows, failures = [], []
        for name, f, results, factors in outputs:
            row, broken = table_row(name, f, results, factors)
            rows.append(row)
            failures += broken
        found = digest(rows)
        return failures + check_digest("tables", found, seed,
                                       expected), found


# ----------------------------------------------------------------------
# serve: a daemon and one closed-loop client
# ----------------------------------------------------------------------

#: Verbs whose latency is reported as "light"; every other is "heavy".
LIGHT_VERBS = frozenset({"var", "apply"})
#: jobs per pass: enough that the total work, and with it the timings
#: and node counts, varies little between seeds
SERVE_JOBS = 40
SERVE_VARS = 18
SERVE_TERMS = 16
SERVE_WIDTH = 6


def serve_job(call: Callable[[str, dict], dict], rng: random.Random,
              job: int, blif: str) -> None:
    """One job: a random DNF built with var/apply, then the heavy verbs.

    ``call(verb, params)`` returns the result object of one request.
    Every 4th job also traverses ``blif`` to its fixpoint.
    """
    names = [f"x{i}" for i in range(SERVE_VARS)]
    handles = {name: call("var", {"name": name})["handle"]
               for name in names}
    dnf = None
    for _ in range(SERVE_TERMS):
        cube = None
        for name in rng.sample(names, SERVE_WIDTH):
            literal = handles[name]
            if rng.random() < 0.5:
                literal = call("apply", {"op": "not",
                                         "f": literal})["handle"]
            cube = literal if cube is None else call(
                "apply", {"op": "and", "f": cube, "g": literal})["handle"]
        dnf = cube if dnf is None else call(
            "apply", {"op": "or", "f": dnf, "g": cube})["handle"]
    rua = call("approx", {"method": "rua", "f": dnf, "threshold": 0})
    call("approx", {"method": "sp", "f": dnf,
                    "threshold": max(1, rua["nodes"])})
    call("decomp", {"method": "cofactor", "f": dnf})
    call("count", {"f": dnf})
    call("save", {"name": f"j{job}", "f": dnf})
    call("load", {"name": f"j{job}"})
    if job % 4 == 3:
        call("reach", {"blif": blif})


def scrub(verb: str, result: dict) -> dict:
    """A response without its wall-clock fields (reach ``seconds``)."""
    if verb == "reach":
        return {k: v for k, v in result.items() if k != "seconds"}
    return result


def script_digest(records: list[tuple[str, dict, dict, float]]) -> str:
    return digest([[verb, scrub(verb, result)]
                   for verb, _params, result, _latency in records])


@dataclass
class ClientRun:
    """The client's script as sent, with responses and latencies."""

    records: list[tuple[str, dict, dict, float]] = field(
        default_factory=list)
    errors: int = 0
    peak_nodes: int = 0
    server_errors: int = 0


class ServeWorkload:
    """``repro serve`` with one worker and one blocking client."""

    name = "serve"
    in_process = False

    def __init__(self) -> None:
        self.blif = write_blif(shift_queue(4, 3))

    def run_pass(self, ctx: Context) -> PassResult:
        result = PassResult()
        scratch = WORK / f"serve-{os.getpid()}-{ctx.index}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            with ctx.span("bench.setup", "serve/boot"), \
                    ctx.span("serve.boot"):
                daemon, port = _spawn_daemon(scratch)
            try:
                run = self._drive(ctx, port, result)
                result.rss_mb = vm_hwm_mb(daemon.pid)
            finally:
                _stop(daemon)
            result.counters["store.bytes_written"] = sum(
                path.stat().st_size
                for path in (scratch / "store" / "objects").rglob("*")
                if path.is_file())
            if ctx.tracer is not None:
                self._replay(ctx, run, scratch, result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result.counters["serve.errors"] = run.server_errors
        result.peak_nodes = run.peak_nodes
        result.outputs = {
            "digest": script_digest(run.records),
            "replay_mismatches": result.extra.get("replay_mismatches", 0)}
        return result

    def _drive(self, ctx: Context, port: int,
               result: PassResult) -> ClientRun:
        """Send the seed's script, each request after the previous
        reply, from this thread."""
        run = ClientRun()
        rng = random.Random(f"{ctx.seed}/client0")
        with Client(port=port, timeout=120.0) as client:
            def call(verb: str, params: dict) -> dict:
                began = time.perf_counter()
                reply = client.call(verb, params)
                run.records.append((verb, params, reply,
                                    time.perf_counter() - began))
                ctx.step()
                return reply

            ctx.begin_solve()
            for job in range(SERVE_JOBS):
                with ctx.span("bench.job", f"serve/j{job}"):
                    try:
                        serve_job(call, rng, job, self.blif)
                    except ServerError:
                        run.errors += 1
            ctx.end_solve()
            stats = client.call("stats")
            run.peak_nodes = stats["session"]["manager"]["peak_nodes"]
            run.server_errors = sum(stats["server"]["errors"].values())
        result.attempted = len(run.records) + run.errors
        result.failed = run.errors
        for verb, _, _, latency in run.records:
            (result.light if verb in LIGHT_VERBS
             else result.heavy).append(latency)
        return run

    def _replay(self, ctx: Context, run: ClientRun, scratch: Path,
                result: PassResult) -> None:
        """Re-execute the client's script inline through a fresh
        session, timing the execute half of every request."""
        tracer = ctx.tracer
        assert tracer is not None
        mismatches = 0
        began = time.perf_counter()
        with ctx.span("bench.replay", "serve/replay"):
            session = Session("s1", SessionConfig(
                backend=resolve_backend(None),
                store=BDDStore(scratch / "replay")))
            mark = len(tracer.spans)
            for job, records in _by_job(run.records):
                with ctx.span("bench.job", f"serve/j{job}"):
                    for verb, params, reply, _ in records:
                        got = session.execute(verb, dict(params))
                        mismatches += scrub(verb, got) != scrub(verb, reply)
            execs = sorted((s for s in tracer.spans[mark:]
                            if s.name == "serve.exec"),
                           key=lambda s: s.start)
            for (verb, _, _, latency), span in zip(run.records, execs):
                kind = "light" if verb in LIGHT_VERBS else "heavy"
                result.extra.setdefault(f"exec_{kind}", []).append(
                    span.end - span.start)
                result.extra.setdefault(f"wait_{kind}", []).append(
                    latency - (span.end - span.start))
        result.extra["replay_s"] = time.perf_counter() - began
        result.extra["replay_mismatches"] = mismatches
        result.counters.update({f"bdd.{key}": value for key, value in
                                bdd_counters([session.manager]).items()})

    def check(self, outputs: dict, seed: int,
              expected: dict) -> tuple[list[str], str]:
        found = outputs["digest"]
        failures = check_digest("serve", found, seed, expected)
        if outputs["replay_mismatches"]:
            failures.append(f"serve: {outputs['replay_mismatches']} "
                            f"inline replies differ from the daemon's")
        return failures, found


def _by_job(records: list[tuple[str, dict, dict, float]]
            ) -> list[tuple[int, list]]:
    """Split the client's records into jobs (each starts with var x0)."""
    jobs: list[tuple[int, list]] = []
    for record in records:
        if record[0] == "var" and record[1]["name"] == "x0":
            jobs.append((len(jobs), []))
        jobs[-1][1].append(record)
    return jobs


def _spawn_daemon(scratch: Path) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` and return it once its ready line is out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    # A shell that starts the benchmark in the background leaves SIGINT
    # ignored, and an ignored signal stays ignored across exec: the
    # daemon would then sit out _stop's interrupt for its whole timeout.
    # A handled signal reverts to the default in the child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with open(scratch / "daemon.log", "wb") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--store", str(scratch / "store")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            text=True)
    line = daemon.stdout.readline() if daemon.stdout else ""
    if "listening on" not in line:
        _stop(daemon)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(line.split("listening on ", 1)[1].split()[0]
               .rsplit(":", 1)[1])
    return daemon, port


def _stop(daemon: subprocess.Popen) -> None:
    """Interrupt the daemon (clean shutdown) and wait for it to end."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    if daemon.stdout is not None:
        daemon.stdout.close()


# ----------------------------------------------------------------------

WORKLOADS: dict[str, Callable[[], Any]] = {
    "reach": ReachWorkload,
    "tables": TablesWorkload,
    "serve": ServeWorkload,
}

#: The tail percentile reported for light and heavy steps: the highest
#: of 99, 95, 90 and 75 with at least ten of a run's samples beyond it
#: when the run holds its fewest passes, three (README.md lists the
#: sample counts).  Fixed per workload, so it never moves between runs.
TAILS: dict[str, tuple[float, float]] = {
    "reach": (95.0, 75.0),
    "tables": (95.0, 90.0),
    "serve": (99.0, 95.0),
}
