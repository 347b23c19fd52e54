"""Persisted benchmark results: ``BENCH_<name>.json`` files.

Every table benchmark serializes a machine-readable result file, and
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
      "rows": [ {"key": "...", ...}, ... ]
    }

Row conventions
---------------
``key``
    Unique row identifier; rows are matched across files by key.
experiment rows
    Deterministic results (node counts, minterm counts, state counts)
    and, on Tables 2–4, the ``digest`` of the row's result functions.
``task/<key>`` rows
    Engine rows (:func:`task_rows`): wall-clock ``seconds`` and a
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
    "task_rows",
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
                  total_seconds: float = 0.0) -> dict:
    """Assemble a schema-1 payload for one benchmark run."""
    return {
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
    }


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


def task_rows(run) -> list[dict]:
    """Per-task timing/stats rows of an :class:`EngineRun`.

    One row per task, keyed ``task/<key>`` so the engine timings live in
    the same file as the experiment's own rows without key collisions.
    """
    rows = []
    for outcome in run.outcomes:
        row = {"key": f"task/{outcome.key}",
               "seconds": round(outcome.seconds, 3)}
        if isinstance(outcome.result, dict) and \
                "manager_stats" in outcome.result:
            row["manager_stats"] = outcome.result["manager_stats"]
        rows.append(row)
    return rows


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
