"""Serialization and cross-manager transfer."""

from __future__ import annotations

import pytest

from repro.bdd import LoadError, Manager, dump, load, transfer

from ..helpers import SETTINGS, fresh_manager, settings_manager


class TestDumpLoad:
    def test_roundtrip_same_manager(self, random_functions):
        m, funcs = random_functions
        for f in funcs:
            assert load(m, dump(f)) == f

    def test_roundtrip_fresh_manager(self, random_functions):
        m, funcs = random_functions
        for f in funcs[:4]:
            target = Manager()
            g = load(target, dump(f))
            assert g.sat_count(m.num_vars) == f.sat_count()
            assert g.support() == f.support()

    def test_roundtrip_different_order(self, random_functions):
        m, funcs = random_functions
        f = funcs[0]
        target = Manager(vars=[f"x{i}" for i in range(12)][::-1])
        g = load(target, dump(f))
        assert g.sat_count() == f.sat_count()

    def test_constants(self):
        m = Manager(vars=["a"])
        assert load(m, dump(m.true)).is_true
        assert load(m, dump(m.false)).is_false

    def test_rejects_garbage(self):
        m = Manager()
        with pytest.raises(ValueError):
            load(m, "not a dump")
        with pytest.raises(ValueError):
            load(m, "repro-bdd 1\n")  # missing root

    def test_declare_false(self):
        m, vs = fresh_manager(3)
        text = dump(vs[0] & vs[2])
        target = Manager()
        with pytest.raises(ValueError):
            load(target, text, declare=False)


class TestTransfer:
    def test_transfer_preserves_semantics(self, random_functions):
        m, funcs = random_functions
        target = Manager()
        for f in funcs[:4]:
            g = transfer(f, target)
            assert g.manager is target
            assert g.sat_count(m.num_vars) == f.sat_count()

    def test_transfer_same_manager_is_identity(self, random_functions):
        m, funcs = random_functions
        assert transfer(funcs[0], m) == funcs[0]

    def test_transfer_into_reversed_order(self, random_functions):
        m, funcs = random_functions
        target = Manager(vars=[f"x{i}" for i in range(12)][::-1])
        for f in funcs[:4]:
            g = transfer(f, target)
            assert g.sat_count() == f.sat_count()
            assert g.support() == f.support()

    def test_transfer_shares_subgraphs(self, random_functions):
        m, funcs = random_functions
        target = Manager()
        a = transfer(funcs[0], target)
        b = transfer(funcs[0], target)
        assert a == b


class TestCorruptionCorpus:
    """Malformed dumps raise structured LoadError.

    The direct-insert fast path feeds ``store.mk`` straight from the
    input, so every case here guards against a corrupt dump becoming a
    silently non-canonical (wrong) BDD instead of an error.
    """

    CORPUS = [
        ("bad-header", "repro-bdd 99\nroot 1\n"),
        ("no-header", "2 a 1 0\nroot 2\n"),
        ("missing-root", "repro-bdd 1\n2 a 1 0\n"),
        ("undefined-root", "repro-bdd 1\n2 a 1 0\nroot 9\n"),
        ("malformed-root", "repro-bdd 1\nroot 2 extra\n"),
        ("non-integer-root", "repro-bdd 1\nroot x\n"),
        ("short-node-line", "repro-bdd 1\n2 a 1\nroot 2\n"),
        ("long-node-line", "repro-bdd 1\n2 a 1 0 9\nroot 2\n"),
        ("non-integer-index", "repro-bdd 1\nx a 1 0\nroot 2\n"),
        ("non-integer-child", "repro-bdd 1\n2 a one 0\nroot 2\n"),
        ("reserved-index-0", "repro-bdd 1\n0 a 1 0\nroot 0\n"),
        ("reserved-index-1", "repro-bdd 1\n1 a 1 0\nroot 1\n"),
        ("negative-index", "repro-bdd 1\n-3 a 1 0\nroot 2\n"),
        ("duplicate-index",
         "repro-bdd 1\n2 a 1 0\n2 b 0 1\nroot 2\n"),
        ("undefined-hi", "repro-bdd 1\n2 a 7 0\nroot 2\n"),
        ("undefined-lo", "repro-bdd 1\n2 a 1 7\nroot 2\n"),
        ("forward-reference",
         "repro-bdd 1\n2 a 3 0\n3 b 1 0\nroot 2\n"),
        ("redundant-node", "repro-bdd 1\n2 a 1 1\nroot 2\n"),
    ]

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize(
        "text", [text for _, text in CORPUS],
        ids=[label for label, _ in CORPUS])
    def test_corrupt_dump_is_structured_error(self, setting, text):
        manager = settings_manager(setting)
        with pytest.raises(LoadError) as excinfo:
            load(manager, text)
        # LoadError subclasses ValueError: legacy callers that catch
        # ValueError keep working.
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_undeclared_variable_with_declare_false(self, setting):
        manager = settings_manager(setting)
        with pytest.raises(LoadError, match="unknown variable"):
            load(manager, "repro-bdd 1\n2 ghost 1 0\nroot 2\n",
                 declare=False)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_corpus_cases_reject_cleanly_then_load_works(self,
                                                         setting):
        """A rejected dump must not poison the manager: the same
        manager loads a well-formed dump afterwards."""
        manager = settings_manager(setting)
        for _, text in self.CORPUS:
            with pytest.raises(LoadError):
                load(manager, text)
        f = load(manager, "repro-bdd 1\n2 a 1 0\nroot 2\n")
        assert f.sat_count() == 1
