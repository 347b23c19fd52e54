"""Node primitives: the fields of a node id, read from the store columns."""

from __future__ import annotations

from repro.bdd import TERMINAL_LEVEL, Manager


class TestNode:
    def test_terminal_flags(self):
        m = Manager()
        store = m.store
        assert (m.zero_node, m.one_node) == (0, 1)
        assert store.is_terminal(m.one_node)
        assert store.is_terminal(m.zero_node)
        assert store.value_of(m.one_node) == 1
        assert store.value_of(m.zero_node) == 0
        assert store.level[m.one_node] == TERMINAL_LEVEL

    def test_internal_node_fields(self):
        m = Manager(vars=["a"])
        store = m.store
        node = m.var("a").node
        assert not store.is_terminal(node)
        assert store.value_of(node) is None
        assert store.level[node] == 0
        assert store.hi[node] == m.one_node
        assert store.lo[node] == m.zero_node

    def test_terminal_level_above_all_variables(self):
        m = Manager(vars=[f"v{i}" for i in range(100)])
        assert all(m.store.level[m.var(f"v{i}").node] < TERMINAL_LEVEL
                   for i in range(100))

    def test_ref_counts_start_consistent(self):
        m = Manager(vars=["a", "b"])
        f = m.var("a") & m.var("b")
        m.collect_garbage()
        # After GC, the root carries its external reference.
        assert m.store.ref[f.node] >= 1
