"""Persisted benchmark results: ``BENCH_<name>.json`` files.

Every table benchmark serializes a machine-readable result file; a
partial file lets an interrupted run resume (:func:`resume_tasks`), and
the Table 2–4 rows are checked against pinned row digests
(:func:`pin_mismatches`).  The format (schema version 1):

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
experiment rows
    Deterministic results (node counts, minterm counts, state counts)
    and, on Tables 2–4, the ``digest`` of the row's result functions.
``task/<key>`` rows
    Engine rows (:func:`task_rows`): wall-clock ``seconds``,
    ``status``, ``attempts``, the task payload digest resume runs
    match against (``spec``, :func:`spec_digest`) and a
    ``manager_stats`` snapshot.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
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
    "row_digest",
    "pin_mismatches",
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
    """Assemble a schema-1 payload for one benchmark run."""
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
        raise ValueError(f"{path}: unsupported BENCH schema "
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
    the same file as the experiment's own rows without key collisions.
    ``specs`` (key -> :func:`spec_digest`) stamps each row with its
    payload digest, enabling :func:`resume_tasks` on the written file.
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


def row_digest(row: dict) -> str:
    """sha256 of one row's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pin_mismatches(pins: dict[str, str], rows: list[dict]) -> list[str]:
    """How ``rows`` differ from ``pins`` (row key -> :func:`row_digest`).

    One line per changed, missing or extra key, so a failing check
    names every row it rejects; empty when each row matches its pin.
    """
    found = {row["key"]: row_digest(row) for row in rows}
    return ([f"changed: {key}" for key, pin in pins.items()
             if key in found and found[key] != pin]
            + [f"missing: {key}" for key in pins if key not in found]
            + [f"extra: {key}" for key in found if key not in pins])
