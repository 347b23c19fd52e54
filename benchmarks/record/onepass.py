"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

    python3 benchmarks/record/onepass.py WORKLOAD --seed N --index I
        --spawned T --spawn-ref R --out FILE [--traced]

``T`` is the ``time.monotonic()`` reading taken just before this
interpreter was started and ``R`` a reference-loop time taken then
(:mod:`hostspeed`), so the pass's set-up time covers interpreter
start, imports and the workload's own set-up up to its first timed
call: what a user running the ``repro`` command pays on every call.
Set-up and solve time are measured by a :class:`~hostspeed.HostMeter`,
as wall time and normalised to the nominal host speed.

The pass runs, its peak resident set is read, its outputs are checked
(untimed, untraced), and a JSON record is written to ``FILE``: the
:class:`~workloads.PassResult` without its outputs, the check failures,
the digests the checks computed, the backend, and the spans when
``--traced``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path

import tracer as tracing
from common import EXPECTED_PATH, load_json, vm_hwm_mb
from hostspeed import HostMeter
from workloads import APPROXIMATORS, WORKLOADS, Context

from repro.bdd.backend import resolve_backend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spawn-ref", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    meter = HostMeter(args.spawned, args.spawn_ref, "setup")
    # A sample between interpreter start and the workload's set-up.
    meter.cut()
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.traced else None
    patches = tracing.install(tracer, APPROXIMATORS) if tracer else None
    began = time.perf_counter()
    try:
        result = workload.run_pass(Context(args.seed, args.index, tracer,
                                           meter))
    finally:
        if patches is not None:
            patches.restore()
    result.wall_s = time.perf_counter() - began
    result.traced = args.traced
    result.setup_s = meter.normalised("setup")
    result.setup_wall_s = meter.wall("setup")
    result.solve_s = meter.normalised("solve")
    result.solve_wall_s = meter.wall("solve")
    result.ref_ms = statistics.median(meter.refs) * 1e3
    if workload.in_process:
        result.rss_mb = vm_hwm_mb()
    outputs, result.outputs = result.outputs, None
    failures, digests = workload.check(outputs, args.seed,
                                       load_json(EXPECTED_PATH))
    record = {"pass": asdict(result), "failures": failures,
              "digests": digests, "backend": resolve_backend(None),
              "spans": [astuple(s) for s in tracer.spans] if tracer else []}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip the interpreter's teardown: freeing the pass's heap object by
    # object takes up to a second and measures nothing.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
