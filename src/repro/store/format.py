"""Binary object format: level-ordered, CRC-framed, content-addressed.

One *object* serializes one or more named roots over a shared node
set, streamed bottom-up one level per segment (per Hansen/Rao/
Tiedemann's "Compressing Binary Decision Diagrams"): every edge points
at an already-decoded node, so the decoder builds the graph in one
forward pass with no fixups and the representation is canonical — two
managers holding the same boolean functions under the same variable
order produce byte-identical objects regardless of node insertion
history, which is what makes content addressing dedupe
identical subgraphs across functions and across runs.

Layout::

    MAGIC
    frame(header JSON)              {"format", "order", "segments",
                                     "roots", "nodes"}
    frame(level segment) ...        one per used level, deepest first;
                                    count * (hi_ref, lo_ref) as <II

where ``frame(p)`` is ``<II`` ``(len(p), crc32(p))`` followed by the
payload.  References: 0 is the FALSE terminal, 1 is TRUE, and ``k+2``
is the k-th node of the stream.  Within a level, nodes are sorted by
``(hi_ref, lo_ref)`` — children live in deeper (earlier) segments, so
the order is well-defined and canonical.

Every structural violation (bad magic, CRC mismatch, forward or
out-of-range reference, redundant ``hi == lo`` node, trailing bytes)
raises :class:`~repro.store.errors.StoreCorruptError`.

This is the one interchange format for BDDs: :func:`transfer` copies a
function into another manager by encoding and decoding it, so store
loads and cross-manager copies share one rebuild and its checks.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any, TYPE_CHECKING

from ..bdd.function import Function
from ..bdd.operations import ite_node
from ..bdd.traversal import collect_nodes
from .errors import StoreCorruptError, StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bdd.manager import Manager

__all__ = ["FORMAT_VERSION", "MAGIC", "content_address",
           "encode_roots", "decode_roots", "transfer"]

#: Bumped on incompatible changes to the object layout.
FORMAT_VERSION = 1

MAGIC = b"repro-store:1\n"

_FRAME = struct.Struct("<II")
_PAIR = struct.Struct("<II")

#: Refuse absurd frame lengths before allocating (an object holding
#: 2^28 bytes of one segment is corruption, not a workload).
_MAX_FRAME = 1 << 28


def content_address(data: bytes) -> str:
    """The object's name: sha256 over its full encoded bytes."""
    return hashlib.sha256(data).hexdigest()


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frame(data: bytes, offset: int, what: str) -> tuple[bytes, int]:
    end = offset + _FRAME.size
    if end > len(data):
        raise StoreCorruptError(f"truncated {what} frame header")
    length, crc = _FRAME.unpack_from(data, offset)
    if length > _MAX_FRAME:
        raise StoreCorruptError(
            f"{what} frame length {length} exceeds {_MAX_FRAME}")
    payload = data[end:end + length]
    if len(payload) != length:
        raise StoreCorruptError(
            f"short read: {what} frame wants {length} bytes, "
            f"{len(payload)} present")
    if zlib.crc32(payload) != crc:
        raise StoreCorruptError(f"CRC32 mismatch in {what} frame")
    return payload, end + length


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------

def encode_roots(manager: "Manager",
                 roots: dict[str, Function]) -> bytes:
    """Serialize named functions of one manager into object bytes."""
    if not roots:
        raise StoreError("an object needs at least one root")
    store = manager.store
    level_of, hi_of, lo_of = store.level_of, store.hi_of, store.lo_of
    by_level: dict[int, list[int]] = {}
    seen: set[int] = set()
    for name, function in roots.items():
        if function.manager is not manager:
            raise StoreError(
                f"root {name!r} belongs to a different manager")
        for node in collect_nodes(store, function.node):
            if node not in seen:
                seen.add(node)
                by_level.setdefault(level_of(node), []).append(node)
    ref: dict[int, int] = {store.zero: 0, store.one: 1}
    segments: list[tuple[str, bytes]] = []
    next_ref = 2
    for level in sorted(by_level, reverse=True):
        group = sorted(by_level[level],
                       key=lambda n: (ref[hi_of(n)], ref[lo_of(n)]))
        flat: list[int] = []
        for node in group:
            flat.append(ref[hi_of(node)])
            flat.append(ref[lo_of(node)])
            ref[node] = next_ref
            next_ref += 1
        segments.append((manager.var_at_level(level),
                         struct.pack(f"<{len(flat)}I", *flat)))
    header = {
        "format": FORMAT_VERSION,
        "order": [name for _, name in
                  sorted((level, manager.var_at_level(level))
                         for level in by_level)],
        "segments": [{"var": var, "count": len(payload) // _PAIR.size}
                     for var, payload in segments],
        "roots": {name: ref[function.node]
                  for name, function in sorted(roots.items())},
        "nodes": next_ref - 2,
    }
    out = [MAGIC,
           _frame(json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))]
    out.extend(_frame(payload) for _, payload in segments)
    return b"".join(out)


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------

def _parse(data: bytes) -> tuple[dict[str, Any],
                                 list[tuple[str, list[tuple[int, int]]]]]:
    """Split object bytes into a validated header and level segments.

    Pure structural validation — no manager involved: frames verify by
    CRC, every reference must point strictly backward in the stream,
    and redundant ``hi == lo`` nodes are rejected (the encoder never
    emits them, so their presence proves corruption).
    """
    if not data.startswith(MAGIC):
        raise StoreCorruptError("bad magic: not a repro store object")
    payload, offset = _read_frame(data, len(MAGIC), "header")
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"malformed header JSON: {exc}")
    if not isinstance(header, dict):
        raise StoreCorruptError("header is not a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported object format {header.get('format')!r} "
            f"(this build reads {FORMAT_VERSION})")
    order = header.get("order")
    specs = header.get("segments")
    root_map = header.get("roots")
    nodes = header.get("nodes")
    if not (isinstance(order, list)
            and all(isinstance(v, str) for v in order)
            and isinstance(specs, list) and isinstance(root_map, dict)
            and isinstance(nodes, int)):
        raise StoreCorruptError("header fields have the wrong shape")
    segments: list[tuple[str, list[tuple[int, int]]]] = []
    next_ref = 2
    for spec in specs:
        if not (isinstance(spec, dict) and isinstance(spec.get("var"),
                                                      str)
                and isinstance(spec.get("count"), int)
                and spec["count"] >= 0):
            raise StoreCorruptError("malformed segment descriptor")
        if spec["var"] not in order:
            raise StoreCorruptError(
                f"segment variable {spec['var']!r} missing from the "
                f"declared order")
        payload, offset = _read_frame(data, offset,
                                      f"segment {spec['var']!r}")
        if len(payload) != spec["count"] * _PAIR.size:
            raise StoreCorruptError(
                f"segment {spec['var']!r} holds {len(payload)} bytes, "
                f"descriptor promises {spec['count']} nodes")
        pairs: list[tuple[int, int]] = []
        flat = struct.unpack(f"<{2 * spec['count']}I", payload)
        for i in range(spec["count"]):
            hi, lo = flat[2 * i], flat[2 * i + 1]
            if hi >= next_ref or lo >= next_ref:
                raise StoreCorruptError(
                    f"node {next_ref} references a node not yet "
                    f"decoded (hi={hi}, lo={lo})")
            if hi == lo:
                raise StoreCorruptError(
                    f"node {next_ref} is redundant (hi == lo == {hi})")
            pairs.append((hi, lo))
            next_ref += 1
        segments.append((spec["var"], pairs))
    if offset != len(data):
        raise StoreCorruptError(
            f"{len(data) - offset} trailing bytes after the last "
            f"segment")
    if next_ref - 2 != nodes:
        raise StoreCorruptError(
            f"header promises {nodes} nodes, segments hold "
            f"{next_ref - 2}")
    for name, root in root_map.items():
        if not (isinstance(name, str) and isinstance(root, int)
                and 0 <= root < next_ref):
            raise StoreCorruptError(f"root {name!r} -> {root!r} is "
                                    f"out of range")
    return header, segments


def _build(manager: "Manager",
           segments: list[tuple[str, list[tuple[int, int]]]],
           direct: bool) -> list[Any] | None:
    """One pass building the node stream inside ``manager``.

    With ``direct`` True nodes go straight into the unique table via
    ``store.mk`` — valid only while every edge's child sits strictly
    deeper than its parent in the *target* order; the pass returns
    None on the first incompatible edge, and the caller falls back to
    the order-independent ITE rebuild.
    """
    store = manager.store
    is_terminal, level_of = store.is_terminal, store.level_of
    handles: list[Any] = [store.zero, store.one]
    for var, pairs in segments:
        level = manager.level_of_var(var)
        for hi_ref, lo_ref in pairs:
            hi, lo = handles[hi_ref], handles[lo_ref]
            if direct:
                if (not is_terminal(hi) and level_of(hi) <= level) or \
                        (not is_terminal(lo) and level_of(lo) <= level):
                    return None
                handles.append(store.mk(level, hi, lo))
            else:
                handles.append(ite_node(manager,
                                        manager.var_handle(var),
                                        hi, lo))
    return handles


def decode_roots(manager: "Manager", data: bytes, *,
                 declare: bool = True) -> dict[str, Function]:
    """Rebuild an object's named roots inside ``manager``.

    Unknown variables are declared in the object's recorded top-to-
    bottom order (bottom of the manager's order) unless ``declare`` is
    False.  When the resulting order is edge-compatible the nodes are
    inserted directly (the stream is already a canonical ROBDD in that
    order); otherwise the functions are rebuilt with ITE, which is
    correct under any order.
    """
    header, segments = _parse(data)
    for name in header["order"]:
        if name not in manager._var_to_level:
            if not declare:
                raise StoreError(f"unknown variable {name!r} "
                                 f"(declare=False)")
            manager.add_var(name)
    handles = _build(manager, segments, direct=True)
    if handles is None:
        handles = _build(manager, segments, direct=False)
    return {name: Function(manager, handles[root])
            for name, root in header["roots"].items()}


def transfer(function: Function, target: "Manager") -> Function:
    """Copy ``function`` into ``target``, whose order may differ.

    Returns ``function`` itself when ``target`` is its own manager.
    Otherwise the function is encoded and decoded into ``target``:
    variables it lacks are declared at the bottom of its order, in the
    source's order.
    """
    if function.manager is target:
        return function
    data = encode_roots(function.manager, {"f": function})
    return decode_roots(target, data)["f"]
