"""The on-disk store: content-addressed objects + an sqlite index.

Layout of a store directory::

    <root>/
      index.sqlite          names/tags -> object hashes (schema below)
      objects/<h2>/<hash>   immutable encoded objects (format.py),
                            named by their sha256 content address

Objects are immutable and content-addressed, so saving the same
function twice — in one run or across runs — writes one file, and a
multi-root object (a reachability checkpoint's reached set plus
frontier) shares its interior nodes by construction.

Durability: object writes go to a temporary file in the target
directory, fsync, ``os.replace`` into place, fsync the directory — a
crash at any point leaves either no visible object or a complete one
(leftover ``.tmp-*`` files are invisible to every read path and
reclaimed by :meth:`BDDStore.sweep_tmp`).  Index updates are sqlite
transactions.  Reads verify the sha256 content address against the
file name and every CRC frame inside; any mismatch raises
:class:`~repro.store.errors.StoreCorruptError`.
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import closing
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from ..bdd.function import Function
from .errors import StoreCorruptError, StoreError
from .format import content_address, decode_roots, encode_roots

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bdd.manager import Manager

__all__ = ["BDDStore", "SCHEMA_VERSION"]

#: Bumped on incompatible index-schema changes; stores written by a
#: newer schema are refused instead of being misread.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS functions (
    name    TEXT PRIMARY KEY,
    hash    TEXT NOT NULL,
    root    TEXT NOT NULL,
    nodes   INTEGER NOT NULL,
    vars    INTEGER NOT NULL,
    created TEXT NOT NULL,
    tags    TEXT NOT NULL DEFAULT '',
    extra   TEXT NOT NULL DEFAULT '{}'
);
"""


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` so that ``path`` is either absent or complete."""
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


class BDDStore:
    """One persistent store directory (see the module docstring).

    Thread- and process-safe at the operation level: every method
    opens a short-lived sqlite connection (sqlite serializes writers),
    and object files are immutable once visible.
    """

    def __init__(self, path: str | Path, *, create: bool = True) -> None:
        self.root = Path(path)
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.sqlite"
        if create:
            self.objects.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"no store at {self.root}")
        try:
            with closing(self._connect()) as conn, conn:
                conn.executescript(_SCHEMA)
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = "
                    "'schema_version'").fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO meta (key, value) VALUES "
                        "('schema_version', ?)", (str(SCHEMA_VERSION),))
                    return
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(
                f"{self.index_path}: cannot read index: {exc}")
        if not row[0].isdigit() or int(row[0]) != SCHEMA_VERSION:
            raise StoreError(
                f"{self.index_path}: index schema {row[0]!r} is not "
                f"supported (this build reads {SCHEMA_VERSION})")

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(self.index_path, timeout=30.0)
            conn.execute("PRAGMA busy_timeout = 30000")
            return conn
        except sqlite3.DatabaseError as exc:  # pragma: no cover
            raise StoreCorruptError(
                f"{self.index_path}: cannot open index: {exc}")

    def __enter__(self) -> "BDDStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    # ------------------------------------------------------------------
    # Object layer
    # ------------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.objects / digest[:2] / digest

    def put_object(self, manager: "Manager",
                   roots: dict[str, Function]) -> str:
        """Encode named roots into one object; returns its address.

        Content addressing makes this idempotent: an object that is
        already present (same functions, same order — this run or any
        previous one) is not rewritten.
        """
        data = encode_roots(manager, roots)
        digest = content_address(data)
        path = self._object_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(path, data)
        return digest

    def get_object(self, manager: "Manager", digest: str, *,
                   declare: bool = True) -> dict[str, Function]:
        """Load an object's named roots into ``manager``, verified."""
        path = self._object_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise StoreError(f"missing object {digest}")
        except OSError as exc:
            raise StoreCorruptError(f"unreadable object {digest}: "
                                    f"{exc}")
        if content_address(data) != digest:
            raise StoreCorruptError(
                f"object {digest} fails its content address "
                f"(bit flip or torn write)")
        return decode_roots(manager, data, declare=declare)

    def sweep_tmp(self) -> int:
        """Remove leftover temporary files of interrupted writes."""
        removed = 0
        for tmp in self.objects.glob("*/.tmp-*"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent sweep
                pass
        return removed

    # ------------------------------------------------------------------
    # Named functions
    # ------------------------------------------------------------------

    def save(self, name: str, function: Function, *,
             tags: Iterable[str] = (),
             extra: dict[str, Any] | None = None) -> str:
        """Persist one function under ``name``; returns the address."""
        return self.save_roots(name, function.manager,
                               {"f": function}, root="f", tags=tags,
                               extra=extra)

    def save_roots(self, name: str, manager: "Manager",
                   roots: dict[str, Function], *, root: str = "",
                   tags: Iterable[str] = (),
                   extra: dict[str, Any] | None = None) -> str:
        """Persist a multi-root object under one index name.

        ``root`` selects which root :meth:`load` returns (may be empty
        for checkpoint-style objects that are only read through
        :meth:`load_roots`).  Re-using an existing name atomically
        repoints it — the previous object stays on disk (other names
        may share it).  The index joins ``tags`` with commas, so a tag
        must be non-empty and contain no comma.
        """
        if not name:
            raise StoreError("function name must be non-empty")
        tags = list(tags)
        for tag in tags:
            if not tag or "," in tag:
                raise StoreError(f"tag {tag!r} must be non-empty and "
                                 f"contain no ','")
        if root and root not in roots:
            raise StoreError(f"root {root!r} is not one of the object "
                             f"roots {sorted(roots)}")
        digest = self.put_object(manager, roots)
        nodes = sum(len(f) for f in roots.values())
        created = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
        try:
            with closing(self._connect()) as conn, conn:
                conn.execute(
                    "INSERT INTO functions (name, hash, root, nodes, "
                    "vars, created, tags, extra) VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?) ON CONFLICT(name) DO "
                    "UPDATE SET hash=excluded.hash, "
                    "root=excluded.root, nodes=excluded.nodes, "
                    "vars=excluded.vars, created=excluded.created, "
                    "tags=excluded.tags, extra=excluded.extra",
                    (name, digest, root, nodes, manager.num_vars,
                     created, ",".join(tags),
                     json.dumps(extra or {}, sort_keys=True)))
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(f"{self.index_path}: {exc}")
        return digest

    def _row(self, name: str) -> tuple[Any, ...] | None:
        try:
            with closing(self._connect()) as conn:
                return conn.execute(
                    "SELECT name, hash, root, nodes, vars, created, "
                    "tags, extra FROM functions WHERE name = ?",
                    (name,)).fetchone()
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(f"{self.index_path}: {exc}")

    def load(self, manager: "Manager", name: str, *,
             declare: bool = True) -> Function:
        """Load the named function into ``manager``."""
        row = self._row(name)
        if row is None:
            raise StoreError(f"unknown function {name!r}")
        if not row[2]:
            raise StoreError(f"{name!r} is a multi-root object; use "
                             f"load_roots")
        roots = self.get_object(manager, row[1], declare=declare)
        if row[2] not in roots:
            raise StoreCorruptError(
                f"object {row[1]} has no root {row[2]!r} "
                f"(index/object disagree)")
        return roots[row[2]]

    def load_roots(self, manager: "Manager", name: str, *,
                   declare: bool = True
                   ) -> tuple[dict[str, Function], dict[str, Any]]:
        """Load a multi-root object; returns ``(roots, extra)``."""
        row = self._row(name)
        if row is None:
            raise StoreError(f"unknown function {name!r}")
        try:
            extra = json.loads(row[7])
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(f"{name!r}: malformed extra "
                                    f"metadata: {exc}")
        return self.get_object(manager, row[1], declare=declare), extra

    def __contains__(self, name: str) -> bool:
        return self._row(name) is not None

    def delete(self, name: str) -> bool:
        """Drop an index entry (its object may be shared; it stays)."""
        try:
            with closing(self._connect()) as conn, conn:
                cursor = conn.execute(
                    "DELETE FROM functions WHERE name = ?", (name,))
                return cursor.rowcount > 0
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(f"{self.index_path}: {exc}")

    def entries(self, *, prefix: str = "") -> list[dict[str, Any]]:
        """Index rows (name-sorted), optionally under a name prefix."""
        try:
            with closing(self._connect()) as conn:
                rows = conn.execute(
                    "SELECT name, hash, root, nodes, vars, created, "
                    "tags, extra FROM functions ORDER BY name"
                ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(f"{self.index_path}: {exc}")
        out = []
        for row in rows:
            if not row[0].startswith(prefix):
                continue
            out.append({"name": row[0], "hash": row[1],
                        "root": row[2], "nodes": row[3],
                        "vars": row[4], "created": row[5],
                        "tags": [t for t in row[6].split(",") if t]})
        return out

    def __iter__(self) -> Iterator[str]:
        return iter(entry["name"] for entry in self.entries())

    def __len__(self) -> int:
        return len(self.entries())
