"""Paths, statistics and process probes shared by the benchmark files.

Importing this module puts the checkout's ``src`` on ``sys.path`` so the
benchmark always measures the source tree it sits in, never an installed
copy of the package.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
#: scratch space for stores, traces and result files (git-ignored)
WORK = ROOT / ".bench_record"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json``)."""
    return load_json(SPEC_PATH)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q`` percentile of ``n`` samples."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
    return int(match.group(1)) / 1024.0
