"""Shared benchmark fixtures.

Scale control: set ``REPRO_BENCH_SCALE=full`` for population thresholds
and circuit sizes closer to the paper's (slower); the default ``quick``
scale finishes the whole benchmark suite in minutes on a laptop.
EXPERIMENTS.md records results at both scales.

Parallelism: ``--jobs N`` maps the table benchmarks over N worker
processes (:func:`repro.harness.engine.run_tasks`); ``--jobs 1``, the
default, runs inline.  Either way the result rows are identical —
workers rebuild their population slice from the same deterministic
specs — and the first failed task fails the benchmark.

Every table benchmark persists a ``BENCH_<name>.json`` file (see
:mod:`repro.harness.trajectory`) into ``REPRO_BENCH_DIR`` (default: the
current directory) through the ``bench_writer`` fixture.  At quick
scale, Tables 2–4 then check every row against its pinned digest in
``table_digests.json`` through the ``check_pins`` fixture.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.harness import (bench_payload, generate_population,
                           pin_mismatches, resolve_jobs, write_bench)


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=1,
        help="worker processes for the table benchmarks "
             "(default: 1; <=0 means all cores)")


@dataclass(frozen=True)
class BenchScale:
    name: str
    #: population node threshold (the paper used 5000)
    min_nodes: int
    #: Table 4's second, larger size class (the paper used 20000)
    large_min_nodes: int


SCALES = {
    "quick": BenchScale(name="quick", min_nodes=300, large_min_nodes=2000),
    "full": BenchScale(name="full", min_nodes=1000,
                       large_min_nodes=5000),
}


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of "
                         f"{sorted(SCALES)}, got {name!r}")


@pytest.fixture(scope="session")
def jobs(request) -> int:
    return resolve_jobs(request.config.getoption("--jobs"))


@pytest.fixture(scope="session")
def bench_dir() -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", "."))


@pytest.fixture(scope="session")
def bench_writer(scale, jobs, bench_dir):
    """``write(name, rows, run)`` -> path of ``BENCH_<name>.json``."""
    def write(name: str, rows: list[dict], run) -> Path:
        payload = bench_payload(name, rows, scale=scale.name, jobs=jobs,
                                total_seconds=run.total_seconds)
        return write_bench(bench_dir / f"BENCH_{name}.json", payload)
    return write


@pytest.fixture(scope="session")
def check_pins(scale):
    """``check(name, rows)``: at quick scale, assert that the rows are
    exactly the ones pinned for table ``name``."""
    pins = json.loads(
        (Path(__file__).parent / "table_digests.json").read_text())

    def check(name: str, rows: list[dict]) -> None:
        if scale.name == "quick":
            mismatches = pin_mismatches(pins[name], rows)
            assert not mismatches, f"{name} rows differ from " \
                f"table_digests.json: {mismatches}"
    return check


@pytest.fixture(scope="session")
def population(scale):
    """The Tables 2-4 function population (generated once per run)."""
    return generate_population(min_nodes=scale.min_nodes)
