"""Spans for the traced run, recorded from the benchmark's own files.

:func:`install` wraps the public entry point of every layer at class or
module level and :meth:`Patches.restore` puts the originals back, so the
package under ``src/`` carries no tracing code and untraced passes run
it unmodified.  Spans stay in memory and are written as NDJSON when the
run ends.  A layer's *self time* is its span's duration minus the part
of that interval its child spans cover.  Each traced pass runs in its
own interpreter; ``run.py`` gathers the passes' spans, renumbered so
ids stay unique, and writes them all when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from common import HERE


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans from every thread; parents are per-thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trace: str | None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent is not None else ""
        span = Span(next(self._ids),
                    parent.id if parent is not None else None,
                    trace, name, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[Span]:
        """Record the enclosed block; ``trace`` defaults to the parent's."""
        span = self._open(name, trace)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


def write_ndjson(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.id):
            handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            low, high = max(start, cursor), min(end, span.end)
            if high > low:
                covered += high - low
            cursor = max(cursor, end)
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_seconds(spans: list[Span]) -> tuple[dict[str, float],
                                               dict[str, float],
                                               dict[str, int]]:
    """Per span name: summed self time, summed duration, and calls."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.id]
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
    return dict(self_s), dict(total_s), dict(calls)


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def attr(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def item(self, mapping: dict, key: str, value: Any) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def function(self, fn: Callable[..., Any], value: Any) -> None:
        """Rebind ``fn`` in every package or benchmark module holding it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            path = getattr(module, "__file__", None) or ""
            if not (name == "repro" or name.startswith("repro.")
                    or path.startswith(str(HERE))):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    self.attr(module, attr, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


def install(tracer: Tracer, approximators: dict[str, Callable]) -> Patches:
    """Wrap every layer entry point; ``approximators`` is the
    benchmark's own method table, traced like the package registry."""
    from repro.bdd.function import Function
    from repro.core.approx import UNDER_APPROXIMATORS
    from repro.core.decomp import decompose
    from repro.fsm.encode import encode
    from repro.harness.population import build_entries
    from repro.reach import (TransitionRelation, bfs_reachability,
                             high_density_reachability)
    from repro.serve.client import Client
    from repro.serve.session import Session
    from repro.store.format import decode_roots, encode_roots
    from repro.store.store import BDDStore

    patches = Patches()
    for fn, name in ((encode, "fsm.encode"),
                     (build_entries, "population.build"),
                     (bfs_reachability, "reach.loop"),
                     (high_density_reachability, "reach.loop"),
                     (encode_roots, "store.encode"),
                     (decode_roots, "store.decode")):
        patches.function(fn, tracer.wrap(name, fn))

    def traced_decompose(f: Any, method: str = "cofactor",
                         conjunctive: bool = True) -> Any:
        with tracer.span(f"decomp.{method}"):
            return decompose(f, method, conjunctive)

    patches.function(decompose, traced_decompose)
    for owner, attr, name in (
            (TransitionRelation, "__init__", "reach.relation_build"),
            (TransitionRelation, "image", "reach.image"),
            (Function, "and_exists", "bdd.and_exists"),
            (Function, "exists", "bdd.exists"),
            (Function, "rename", "bdd.rename"),
            (Client, "call", "serve.call"),
            (Session, "execute", "serve.exec"),
            (BDDStore, "save", "store.save"),
            (BDDStore, "load", "store.load")):
        patches.attr(owner, attr, tracer.wrap(name, vars(owner)[attr]))
    for table in (UNDER_APPROXIMATORS, approximators):
        for key, fn in list(table.items()):
            patches.item(table, key, tracer.wrap(f"approx.{key}", fn))
    return patches
