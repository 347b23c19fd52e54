"""Fault injection: every corrupted read is detected, never misread.

The durability contract of ``docs/persistence.md``: an interrupted or
corrupted object write is either *invisible* (atomic rename never
exposed it) or *detected* as a structured
:class:`~repro.store.errors.StoreCorruptError` — a store can refuse to
answer, but it must never return a silently wrong BDD.  The sweep here
is exhaustive over one stored object: a bit flip at every byte offset
and a truncation at every length, under both test manager settings
(see ``tests/helpers.MANAGER_SETTINGS``).  The structural corpus
re-frames a good object with valid CRCs around one fault each, so the
decoder's own checks, not the frames, must catch it.
"""

from __future__ import annotations

import json
import random
import struct
import zlib

import pytest

from repro.store import (BDDStore, StoreCorruptError, StoreError,
                         decode_roots, encode_roots)
from repro.store.format import MAGIC

from ..helpers import (SETTINGS, random_function, settings_manager,
                       store_digest)

NAMES = [f"x{i}" for i in range(6)]


def fresh(setting="array"):
    """A target manager with the full variable order pre-declared (the
    stored object only carries the support, so sat counts would differ
    in a bare manager)."""
    manager = settings_manager(setting)
    manager.add_vars(*NAMES)
    return manager


def stored(tmp_path, setting):
    """A store holding one saved function; returns (store, f, path)."""
    manager = fresh(setting)
    f = random_function(manager, [manager.var(n) for n in NAMES],
                        random.Random(11), terms=6, width=3)
    store = BDDStore(tmp_path / "store")
    digest = store.save("f", f, tags=("faults",))
    return store, f, store._object_path(digest)


@pytest.mark.parametrize("setting", SETTINGS)
class TestObjectFaults:
    def test_every_bit_flip_is_detected(self, tmp_path, setting):
        store, f, path = stored(tmp_path, setting)
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[offset] ^= 0xFF
            path.write_bytes(bytes(mutated))
            with pytest.raises(StoreCorruptError):
                store.load(fresh(setting), "f")
        # The sweep must not have poisoned anything: restoring the
        # bytes restores the function.
        path.write_bytes(pristine)
        g = store.load(fresh(setting), "f")
        assert g.sat_count() == f.sat_count()

    def test_every_truncation_is_detected(self, tmp_path, setting):
        store, f, path = stored(tmp_path, setting)
        pristine = path.read_bytes()
        for length in range(len(pristine)):
            path.write_bytes(pristine[:length])
            with pytest.raises(StoreCorruptError):
                store.load(fresh(setting), "f")
        path.write_bytes(pristine)
        assert store.load(fresh(setting),
                          "f").sat_count() == f.sat_count()

    def test_trailing_garbage_is_detected(self, tmp_path, setting):
        store, _, path = stored(tmp_path, setting)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreCorruptError):
            store.load(fresh(setting), "f")

    def test_missing_object_is_structured(self, tmp_path, setting):
        store, _, path = stored(tmp_path, setting)
        path.unlink()
        with pytest.raises(StoreError, match="missing object"):
            store.load(fresh(setting), "f")


_FRAME = struct.Struct("<II")  # (length, crc32) before each payload
_PAIR = struct.Struct("<II")  # one node of a segment: (hi, lo) refs


def split(data):
    """The header dict and segment payloads of a well-formed object."""
    payloads, offset = [], len(MAGIC)
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        payloads.append(data[offset:offset + length])
        offset += length
    return json.loads(payloads[0]), payloads[1:]


def reframe(header, payloads):
    """Object bytes around ``header`` and ``payloads``, each in a frame
    whose length and CRC32 are valid."""
    encoded = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return MAGIC + b"".join(_FRAME.pack(len(p), zlib.crc32(p)) + p
                            for p in [encoded, *payloads])


def good_object():
    """(x0 & x1) | (x2 & x3): four levels, one segment each."""
    manager = settings_manager("array", [f"x{i}" for i in range(4)])
    x0, x1, x2, x3 = (manager.var(name) for name in manager.var_names)
    f = (x0 & x1) | (x2 & x3)
    return f, encode_roots(manager, {"f": f})


def _forward_reference(header, payloads):
    # The deepest node points at the root, decoded last.
    payloads[0] = _PAIR.pack(header["nodes"] + 1, 0) \
        + payloads[0][_PAIR.size:]


def _redundant_node(header, payloads):
    payloads[0] = _PAIR.pack(1, 1) + payloads[0][_PAIR.size:]


def _root_out_of_range(header, payloads):
    header["roots"]["f"] = header["nodes"] + 2


def _node_count_mismatch(header, payloads):
    header["nodes"] += 1


def _segment_var_not_in_order(header, payloads):
    header["order"].remove(header["segments"][0]["var"])


def _header_field_shape(header, payloads):
    header["nodes"] = str(header["nodes"])


def _segment_length_mismatch(header, payloads):
    header["segments"][0]["count"] += 1


#: One fault per case, each with the check that must name it.
STRUCTURAL_FAULTS = [
    pytest.param(_forward_reference, "not yet decoded",
                 id="forward-reference"),
    pytest.param(_redundant_node, "redundant", id="redundant-node"),
    pytest.param(_root_out_of_range, "out of range",
                 id="root-out-of-range"),
    pytest.param(_node_count_mismatch, "header promises",
                 id="node-count-mismatch"),
    pytest.param(_segment_var_not_in_order, "missing from the declared",
                 id="segment-var-not-in-order"),
    pytest.param(_header_field_shape, "wrong shape",
                 id="header-field-shape"),
    pytest.param(_segment_length_mismatch, "descriptor promises",
                 id="segment-length-mismatch"),
]


@pytest.mark.parametrize("setting", SETTINGS)
class TestStructuralCorpus:
    @pytest.mark.parametrize("fault, check", STRUCTURAL_FAULTS)
    def test_fault_is_rejected_cleanly(self, setting, fault, check):
        f, data = good_object()
        header, payloads = split(data)
        # Re-framing alone reproduces the object, so the bad one
        # differs from it only by the fault.
        assert reframe(header, payloads) == data
        fault(header, payloads)
        manager = settings_manager(setting)
        with pytest.raises(StoreCorruptError, match=check):
            decode_roots(manager, reframe(header, payloads))
        # Rejected before any variable is declared or node built: the
        # manager stays clean and still decodes the good object.
        assert manager.var_names == []
        assert manager.debug_check() == []
        g = decode_roots(manager, data)["f"]
        assert store_digest(g) == store_digest(f)


class TestTornWrites:
    def test_tmp_files_are_invisible_and_swept(self, tmp_path):
        store, f, path = stored(tmp_path, "array")
        # A crash between open and os.replace leaves a .tmp-* file:
        # simulate one and verify no read path ever sees it.
        torn = path.parent / f".tmp-999-{path.name}"
        torn.write_bytes(path.read_bytes()[:7])
        assert store.load(fresh(), "f").sat_count() == f.sat_count()
        assert [e["name"] for e in store.entries()] == ["f"]
        assert store.sweep_tmp() == 1
        assert not torn.exists()
        assert path.exists()

    def test_wrong_content_address_is_detected(self, tmp_path):
        store, _, path = stored(tmp_path, "array")
        # An object renamed to the wrong digest (or a colliding torn
        # write) fails address verification even when its frames are
        # internally consistent.
        impostor = store._object_path("ab" * 32)
        impostor.parent.mkdir(parents=True, exist_ok=True)
        impostor.write_bytes(path.read_bytes())
        with pytest.raises(StoreCorruptError, match="content address"):
            store.get_object(fresh(), "ab" * 32)


class TestIndexFaults:
    def test_garbage_index_is_detected(self, tmp_path):
        store, _, _ = stored(tmp_path, "array")
        store.index_path.write_bytes(b"\x7fELF not a database\n" * 40)
        with pytest.raises(StoreCorruptError):
            BDDStore(tmp_path / "store")

    def test_malformed_extra_is_detected(self, tmp_path):
        import sqlite3

        store, _, _ = stored(tmp_path, "array")
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE functions SET extra = '{not json'")
        with pytest.raises(StoreCorruptError, match="extra"):
            store.load_roots(fresh(), "f")

    def test_index_object_disagreement_is_detected(self, tmp_path):
        import sqlite3

        store, _, path = stored(tmp_path, "array")
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE functions SET root = 'ghost'")
        with pytest.raises(StoreCorruptError, match="no root"):
            store.load(fresh(), "f")
