"""Mutation tests: the graph sanitizer must catch seeded corruptions.

Each test corrupts one structural invariant of an otherwise healthy
manager and asserts that ``debug_check`` reports a diagnostic from the
matching check — the precision the CUDD ``Cudd_DebugCheck`` analogue
promises.  Everything here carries ``no_sanitize``: the autouse
teardown sweep would (correctly) blow up on the corpses these tests
leave behind.
"""

from __future__ import annotations

import pytest

from repro.bdd import ComputedTable, Manager, SanitizerError
from repro.bdd.computed import pack
from repro.bdd.sanitize import check_manager

from ..helpers import fresh_manager

pytestmark = pytest.mark.no_sanitize


def build_sample():
    manager, variables = fresh_manager(6)
    a, b, c, d = variables[:4]
    f = (a & b) | (c ^ d)
    g = a.ite(b | c, ~d)
    return manager, [f, g]


def checks_of(manager) -> set[str]:
    return {d.check for d in manager.debug_check(raise_on_error=False)}


def internal_nodes(manager):
    return sorted(manager.store.iter_nodes())


def swap_children(store, node) -> None:
    store.hi[node], store.lo[node] = store.lo[node], store.hi[node]


def unique_key(store, node) -> int:
    """The node's key in its level's unique table."""
    return store.hi[node] << 32 | store.lo[node]


def test_clean_manager_passes():
    manager, _ = build_sample()
    assert manager.debug_check() == []


def test_clean_manager_passes_after_gc():
    manager, functions = build_sample()
    del functions
    manager.collect_garbage()
    assert manager.debug_check() == []


def test_swapped_children_detected():
    manager, _ = build_sample()
    store = manager.store
    swap_children(store, max(internal_nodes(manager),
                             key=store.level.__getitem__))
    found = checks_of(manager)
    assert "key-sync" in found


def test_redundant_node_detected():
    manager, _ = build_sample()
    store = manager.store
    victim = next(n for n in internal_nodes(manager) if store.hi[n] >= 2)
    store.lo[victim] = store.hi[victim]
    assert "redundant" in checks_of(manager)


def test_ordering_violation_detected():
    manager, _ = build_sample()
    store = manager.store
    # Lift a node's level above one of its children.
    victim = next(n for n in internal_nodes(manager) if store.hi[n] >= 2)
    store.level[victim] = store.level[store.hi[victim]] + 1
    found = checks_of(manager)
    assert "order" in found
    assert "level-sync" in found  # it also sits in the wrong subtable


def test_duplicate_triple_detected():
    manager, _ = build_sample()
    store = manager.store
    victim = internal_nodes(manager)[0]
    level = store.level[victim]
    # A second node with the same (level, hi, lo), smuggled into the
    # subtable under a different key — duplicates break hash-consing.
    clone = len(store.level)
    store.level.append(level)
    store.hi.append(store.hi[victim])
    store.lo.append(store.lo[victim])
    store.ref.append(0)
    store._tables[level][1 << 50 | clone] = clone
    manager.store._count += 1
    found = checks_of(manager)
    assert "duplicate" in found
    assert "key-sync" in found  # the smuggled key cannot match either


def test_dangling_child_detected():
    manager, _ = build_sample()
    store = manager.store
    victim = next(n for n in internal_nodes(manager) if store.lo[n] >= 2)
    # Point lo at an id with no slot in the columns at all.
    store.lo[victim] = len(store.level) + 7
    assert "dangling" in checks_of(manager)


def test_node_count_mismatch_detected():
    manager, _ = build_sample()
    manager.store._count += 3
    assert "count" in checks_of(manager)


def test_lost_refcount_detected():
    manager, _ = build_sample()
    store = manager.store
    victim = next(n for n in internal_nodes(manager) if store.hi[n] >= 2)
    store.ref[store.hi[victim]] = 0
    assert "refcount" in checks_of(manager)


def test_stale_root_detected():
    manager, functions = build_sample()
    store = manager.store
    # Remove a root's node from the unique table behind the GC's back.
    node = functions[0].node
    assert node >= 2
    del store._tables[store.level[node]][unique_key(store, node)]
    manager.store._count -= 1
    assert "root" in checks_of(manager)


def test_dangling_cache_entry_detected():
    manager, _ = build_sample()
    ghost = len(manager.store.level) + 3  # an id no node has
    _, put = manager.computed.probes()
    put(pack("and", 2, ghost), 1)
    found = checks_of(manager)
    assert "cache-dangling" in found
    # The cache check can be disabled independently.
    diagnostics = manager.debug_check(raise_on_error=False,
                                      check_cache=False)
    assert "cache-dangling" not in {d.check for d in diagnostics}


def test_swept_node_cache_entry_detected(monkeypatch):
    """A cache entry that outlives the sweep of its node is reported."""
    manager, (f, g) = build_sample()
    h = f ^ ~g  # cache entries naming h's nodes, which die below
    assert h.node not in (f.node, g.node)
    del h
    # Bypass the flush that collect_garbage does before ids recycle
    # (and keep an armed sanitizer from sweeping inside the collection).
    monkeypatch.setattr(ComputedTable, "clear", lambda self: 0)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert manager.collect_garbage() > 0
    found = checks_of(manager)
    assert found == {"cache-dangling"}


def test_incomplete_cache_entry_detected():
    # A None result is the signature of a kernel that parked an
    # in-progress marker and aborted — the clean-unwind contract
    # (docs/robustness.md) forbids it surviving a governor abort.
    manager, _ = build_sample()
    _, put = manager.computed.probes()
    put(pack("and", 0, 1), None)
    assert "cache-incomplete" in checks_of(manager)


def test_unregistered_cache_op_detected():
    manager, _ = build_sample()
    _, put = manager.computed.probes()
    # A key packed for no registered opcode, and one not packed at all.
    put(255 | 1 << 8, manager.one_node)
    assert "cache-op" in checks_of(manager)
    manager.computed.clear()
    put(("frobnicate", 1), manager.one_node)
    assert "cache-op" in checks_of(manager)


def test_debug_check_raises_with_diagnostics():
    manager, _ = build_sample()
    swap_children(manager.store, internal_nodes(manager)[0])
    with pytest.raises(SanitizerError) as excinfo:
        manager.debug_check()
    assert excinfo.value.diagnostics
    assert "key-sync" in str(excinfo.value)


def test_check_manager_is_pure():
    """check_manager never mutates the graph it inspects."""
    manager, _ = build_sample()
    before = manager.stats.nodes
    assert check_manager(manager) == []
    assert manager.stats.nodes == before
    assert manager.debug_check() == []


def test_sanitize_env_arming(monkeypatch):
    """REPRO_SANITIZE=1 makes GC raise on a corrupted graph."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    manager = Manager()
    variables = [manager.add_var(f"x{i}") for i in range(4)]
    f = variables[0] & variables[1]
    # Corrupt a *live* root: GC sweeps before it sanitizes, so a dead
    # victim would simply be collected.
    swap_children(manager.store, f.node)
    with pytest.raises(SanitizerError):
        manager.collect_garbage()


def test_sanitize_env_safe_point(monkeypatch):
    """Safe points sweep small managers when armed."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "1")
    manager = Manager()
    variables = [manager.add_var(f"x{i}") for i in range(4)]
    swap_children(manager.store, internal_nodes(manager)[0])
    with pytest.raises(SanitizerError):
        variables[2] & variables[3]


def test_sanitize_env_disabled(monkeypatch):
    """Without the env var, operations tolerate a corrupt graph."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    manager = Manager()
    variables = [manager.add_var(f"x{i}") for i in range(4)]
    swap_children(manager.store, internal_nodes(manager)[0])
    variables[2] & variables[3]  # no sweep, no raise
