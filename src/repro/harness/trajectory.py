"""Persisted benchmark trajectory: ``BENCH_<name>.json`` files.

Every benchmark run serializes a machine-readable result file so that
future performance work is judged against a recorded baseline instead of
anecdotes.  The format (schema version 1):

.. code-block:: json

    {
      "schema": 1,
      "name": "table2",
      "created": "2026-08-05T12:00:00+00:00",
      "git_rev": "440fb5f",
      "python": "3.11.7",
      "scale": "quick",
      "jobs": 2,
      "total_seconds": 12.3,
      "rows": [ {"key": "...", ...}, ... ],
      "failures": [ {"key": "...", "status": "timeout", ...}, ... ]
    }

Row conventions
---------------
``key``
    Unique row identifier; rows are matched across files by key.
``seconds``
    Optional wall-clock time of the row.  Compared with a *ratio
    tolerance* (a row regresses when ``current > tolerance * baseline``
    and the baseline is above the noise floor).
int / str / bool / None fields
    Deterministic results (node counts, minterm counts, state counts,
    statuses).  Compared for exact equality — any difference is a
    *mismatch* and fails the comparison.
``aborts`` / ``degradations`` / ``backend`` / ``spec``
    Optional fields (schema-compatible additions): the governor
    counters, the node-store backend the row was produced on, and the
    task payload digest resume runs match against
    (:func:`spec_digest`).  Compared exactly when both files carry
    them, skipped against baselines written before the fields existed.
other floats and nested objects
    Informational (timings inside manager stats etc.); ignored by the
    comparator.

:func:`compare` loads-and-diffs two such files; the ``repro
trajectory`` CLI command (and ``python -m repro.harness.trajectory``)
wraps it for CI gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "bench_payload",
    "write_bench",
    "load_bench",
    "git_rev",
    "spec_digest",
    "task_rows",
    "failure_rows",
    "resume_tasks",
    "merge_rows",
    "RowDelta",
    "TrajectoryReport",
    "compare",
    "compare_files",
    "main",
]

SCHEMA_VERSION = 1


def git_rev(cwd: str | None = None) -> str | None:
    """Short git revision of ``cwd``'s repository, or None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def bench_payload(name: str, rows: list[dict], *,
                  scale: str | None = None, jobs: int = 1,
                  failures: list[dict] | None = None,
                  total_seconds: float = 0.0,
                  extra: dict | None = None) -> dict:
    """Assemble a schema-1 trajectory payload for one benchmark run."""
    payload = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "created": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "scale": scale,
        "jobs": jobs,
        "total_seconds": round(total_seconds, 3),
        "rows": list(rows),
        "failures": list(failures or ()),
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench(path: str | Path, payload: dict) -> Path:
    """Serialize a payload to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=False)
                    + "\n")
    return path


def load_bench(path: str | Path) -> dict:
    """Load and minimally validate a ``BENCH_*.json`` file."""
    data = json.loads(Path(path).read_text())
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported trajectory schema "
                         f"{schema!r} (expected {SCHEMA_VERSION})")
    if not isinstance(data.get("rows"), list):
        raise ValueError(f"{path}: missing 'rows' list")
    return data


def spec_digest(payload: object) -> str:
    """Stable digest of one task payload.

    Recorded into ``task/<key>`` rows (``spec`` field) and checked by
    :func:`resume_tasks`, so a resumed benchmark re-runs any task whose
    inputs changed since the partial file was written instead of
    silently reusing a stale result.
    """
    return hashlib.sha256(
        repr(payload).encode("utf-8")).hexdigest()[:12]


def task_rows(run, specs: dict[str, str] | None = None) -> list[dict]:
    """Per-task timing/stats rows of an :class:`EngineRun`.

    One row per task, keyed ``task/<key>`` so the engine timings live in
    the same trajectory file as the experiment's own rows without key
    collisions.  The ``seconds`` field is ratio-gated by the comparator;
    ``status``/``attempts`` are compared exactly.  ``specs`` (key ->
    :func:`spec_digest`) stamps each row with its payload digest,
    enabling :func:`resume_tasks` on the written file.
    """
    rows = []
    for outcome in run.outcomes:
        row = {"key": f"task/{outcome.key}", "status": outcome.status,
               "seconds": round(outcome.seconds, 3),
               "attempts": outcome.attempts}
        if specs and outcome.key in specs:
            row["spec"] = specs[outcome.key]
        if isinstance(outcome.result, dict) and \
                "manager_stats" in outcome.result:
            row["manager_stats"] = outcome.result["manager_stats"]
        rows.append(row)
    return rows


def failure_rows(run) -> list[dict]:
    """Engine failures as plain dicts for the ``failures`` section."""
    return [{"key": o.key, "status": o.status, "attempts": o.attempts,
             "error": o.error} for o in run.failures]


def resume_tasks(path: str | Path, tasks: list) -> tuple[list,
                                                         list[dict]]:
    """Split ``tasks`` against a partial ``BENCH_*.json`` file.

    Returns ``(remaining, previous_rows)``.  A task is *done* — and
    dropped from ``remaining`` — when the file holds a ``task/<key>``
    row with ``status == "ok"`` whose ``spec`` digest matches
    :func:`spec_digest` of the task's payload; rows written without a
    digest, with a different digest (the task's inputs changed), or
    with a non-ok status always re-run.  ``previous_rows`` is the
    file's full row list, ready for :func:`merge_rows` with the rows
    of the resumed run.
    """
    data = load_bench(path)
    rows = data["rows"]
    done: dict[str, str | None] = {}
    for row in rows:
        key = row.get("key", "")
        if isinstance(key, str) and key.startswith("task/") \
                and row.get("status") == "ok":
            done[key[len("task/"):]] = row.get("spec")
    remaining = [task for task in tasks
                 if done.get(task.key) is None
                 or done[task.key] != spec_digest(task.payload)]
    return remaining, rows


def merge_rows(previous: list[dict],
               current: list[dict]) -> list[dict]:
    """Union of two row lists by ``key``; current rows win.

    Previous-only rows keep their original order (resumed results stay
    where the partial run wrote them); refreshed and new rows follow.
    """
    merged = {row["key"]: row for row in previous if "key" in row}
    for row in current:
        merged[row["key"]] = row
    return list(merged.values())


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

#: Row fields never compared (metadata and known-noisy values).
_IGNORED_FIELDS = frozenset({"seconds", "manager_stats"})

#: Optional row fields: compared exactly when both sides carry them,
#: skipped when either side predates the field.  Lets newer runs add
#: counters (governor aborts, degradation events) and labels (the
#: node-store backend) without invalidating every committed baseline.
_OPTIONAL_FIELDS = frozenset({"aborts", "degradations", "backend",
                              "spec"})


@dataclass
class RowDelta:
    """Per-row comparison of a current run against the baseline."""

    key: str
    baseline_seconds: float | None = None
    current_seconds: float | None = None
    #: current/baseline time ratio (None when either side lacks timing)
    ratio: float | None = None
    #: True when the ratio exceeds the tolerance above the noise floor
    regressed: bool = False
    #: deterministic fields that differ: field -> (baseline, current)
    mismatches: dict = field(default_factory=dict)


@dataclass
class TrajectoryReport:
    """Outcome of comparing two trajectory files."""

    name: str
    tolerance: float
    time_floor: float
    deltas: list[RowDelta] = field(default_factory=list)
    #: keys present in the baseline but absent from the current run
    missing: list[str] = field(default_factory=list)
    #: keys new in the current run (informational, does not fail)
    added: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[RowDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def mismatched(self) -> list[RowDelta]:
        return [d for d in self.deltas if d.mismatches]

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.mismatched or self.missing)

    def summary(self) -> str:
        lines = [f"trajectory '{self.name}': {len(self.deltas)} rows "
                 f"compared (tolerance {self.tolerance:g}x, "
                 f"time floor {self.time_floor:g}s)"]
        for delta in self.deltas:
            if delta.ratio is not None and (delta.regressed or
                                            abs(delta.ratio - 1) > .25):
                mark = "REGRESSION" if delta.regressed else "drift"
                lines.append(
                    f"  {mark:<10} {delta.key}: "
                    f"{delta.baseline_seconds:.3f}s -> "
                    f"{delta.current_seconds:.3f}s "
                    f"({delta.ratio:.2f}x)")
            for name, (base, cur) in delta.mismatches.items():
                lines.append(f"  MISMATCH   {delta.key}.{name}: "
                             f"{base!r} -> {cur!r}")
        for key in self.missing:
            lines.append(f"  MISSING    {key} (in baseline only)")
        for key in self.added:
            lines.append(f"  added      {key} (new row)")
        lines.append("status: " + ("OK" if self.ok else "FAIL "
                     f"({len(self.regressions)} regressions, "
                     f"{len(self.mismatched)} mismatched rows, "
                     f"{len(self.missing)} missing rows)"))
        return "\n".join(lines)


def _comparable(value: object) -> bool:
    """Deterministic scalar? (bool before int: bool is an int subtype)"""
    return value is None or isinstance(value, (bool, int, str))


def compare(baseline: dict, current: dict, *, tolerance: float = 1.5,
            time_floor: float = 0.05) -> TrajectoryReport:
    """Diff two trajectory payloads row by row.

    ``tolerance`` is the acceptable current/baseline wall-clock ratio;
    rows whose baseline time is under ``time_floor`` seconds never count
    as regressions (micro-rows drown in scheduler noise).
    """
    report = TrajectoryReport(
        name=current.get("name") or baseline.get("name") or "?",
        tolerance=tolerance, time_floor=time_floor)
    base_rows = {row["key"]: row for row in baseline["rows"]}
    cur_rows = {row["key"]: row for row in current["rows"]}
    report.missing = [k for k in base_rows if k not in cur_rows]
    report.added = [k for k in cur_rows if k not in base_rows]
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            continue
        delta = RowDelta(key=key)
        base_s, cur_s = base.get("seconds"), cur.get("seconds")
        if isinstance(base_s, (int, float)) and \
                isinstance(cur_s, (int, float)):
            delta.baseline_seconds = float(base_s)
            delta.current_seconds = float(cur_s)
            if base_s > 0:
                delta.ratio = cur_s / base_s
                delta.regressed = base_s >= time_floor and \
                    cur_s > tolerance * base_s
        for name in sorted(set(base) | set(cur)):
            if name == "key" or name in _IGNORED_FIELDS:
                continue
            if name in _OPTIONAL_FIELDS and (name not in base
                                             or name not in cur):
                continue
            base_v, cur_v = base.get(name), cur.get(name)
            if not (_comparable(base_v) and _comparable(cur_v)):
                continue
            if base_v != cur_v:
                delta.mismatches[name] = (base_v, cur_v)
        report.deltas.append(delta)
    return report


def compare_files(baseline_path: str | Path, current_path: str | Path,
                  *, tolerance: float = 1.5,
                  time_floor: float = 0.05) -> TrajectoryReport:
    """:func:`compare` over two files on disk."""
    return compare(load_bench(baseline_path), load_bench(current_path),
                   tolerance=tolerance, time_floor=time_floor)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trajectory",
        description="Compare two BENCH_*.json benchmark trajectory "
                    "files (exit 1 on regression/mismatch).")
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="acceptable current/baseline wall-clock "
                             "ratio (default: 1.5)")
    parser.add_argument("--time-floor", type=float, default=0.05,
                        help="rows faster than this many baseline "
                             "seconds never regress (default: 0.05)")
    args = parser.parse_args(argv)
    report = compare_files(args.baseline, args.current,
                           tolerance=args.tolerance,
                           time_floor=args.time_floor)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
