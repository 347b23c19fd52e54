"""BENCH_*.json files and the row pins."""

from __future__ import annotations

import json

import pytest

from repro.bdd import Manager
from repro.harness.engine import Task, run_tasks
from repro.harness.experiments import (compound_approx_rows,
                                       decomposition_rows,
                                       reachability_row,
                                       simple_approx_rows)
from repro.harness.population import EntrySpec
from repro.harness.trajectory import (SCHEMA_VERSION, bench_payload,
                                      load_bench, pin_mismatches,
                                      row_digest, task_rows, write_bench)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rows = [{"key": "a", "nodes": 10, "seconds": 0.5}]
        payload = bench_payload("table9", rows, scale="quick", jobs=3,
                                total_seconds=2.5)
        path = write_bench(tmp_path / "sub" / "BENCH_table9.json",
                           payload)
        loaded = load_bench(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["name"] == "table9"
        assert loaded["scale"] == "quick"
        assert loaded["jobs"] == 3
        assert loaded["rows"] == rows
        assert loaded["python"].count(".") == 2

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "rows": []}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

    def test_rejects_missing_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="rows"):
            load_bench(path)


class TestEngineRowHelpers:
    def test_task_rows(self):
        from tests.harness.test_engine import square

        run = run_tasks(square, [Task("a", 2), Task("b", 3)], jobs=1)
        rows = task_rows(run)
        assert [r["key"] for r in rows] == ["task/a", "task/b"]
        assert all(r.keys() == {"key", "seconds"} for r in rows)
        assert isinstance(rows[0]["seconds"], float)


class TestPins:
    def test_names_changed_missing_and_extra_rows(self):
        rows = [{"key": "a", "n": 1}, {"key": "b", "n": 2},
                {"key": "c", "n": 3}]
        pins = {row["key"]: row_digest(row) for row in rows}
        assert pin_mismatches(pins, rows) == []
        rows[1]["n"] = 5
        pins["d"] = pins.pop("c")
        assert pin_mismatches(pins, rows) == [
            "changed: b", "missing: d", "extra: c"]


class TestManagerStatsRows:
    """Every Table 1–4 ``manager_stats`` is one ``ManagerStats.as_dict()``."""

    KEYS = Manager().stats.as_dict().keys()

    @pytest.mark.parametrize("worker", [simple_approx_rows,
                                        compound_approx_rows,
                                        decomposition_rows])
    def test_table_rows_carry_the_slice_manager(self, worker):
        tasks = [Task("mult5_bit5", (EntrySpec("multiplier", "mult5_bit5",
                                               (5, 5)), 30)),
                 # bit 0 of a 3x3 multiplier is one node: an empty slice
                 Task("mult3_bit0", (EntrySpec("multiplier", "mult3_bit0",
                                               (3, 0)), 30))]
        full, empty = task_rows(run_tasks(worker, tasks, jobs=1))
        assert full["manager_stats"].keys() == self.KEYS
        assert full["manager_stats"]["peak_nodes"] > 0
        assert empty["manager_stats"] is None

    @pytest.mark.parametrize("deadline", [None, 0.0])
    def test_reachability_rows_carry_the_circuit_manager(self, deadline):
        payload = {"factory": "token_ring", "args": (3,),
                   "method": "bfs", "deadline": deadline}
        row = reachability_row(payload)
        assert row["complete"] is (deadline is None)
        assert row["manager_stats"].keys() == self.KEYS
        assert row["manager_stats"]["peak_nodes"] > 0
        assert not {"peak_nodes", "aborts", "degradations"} & row.keys()

    @pytest.mark.parametrize("method", ["rua", "sp"])
    def test_high_density_row_past_its_deadline_is_incomplete(self,
                                                              method):
        payload = {"factory": "token_ring", "args": (3,),
                   "method": method, "threshold": 0, "deadline": 0.0}
        row = reachability_row(payload)
        assert row["complete"] is False
        assert row["states"] is row["traverse_seconds"] is None
        assert row["iterations"] is None
        assert row["manager_stats"]["aborts"]
