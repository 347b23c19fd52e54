"""BENCH_*.json files, resume support and the row pins."""

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
                                      failure_rows, load_bench,
                                      pin_mismatches, row_digest,
                                      task_rows, write_bench)


def payload_with(rows, name="t"):
    return bench_payload(name, rows, scale="quick", jobs=2,
                         total_seconds=1.0)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rows = [{"key": "a", "nodes": 10, "seconds": 0.5}]
        payload = bench_payload("table9", rows, scale="quick", jobs=3,
                                total_seconds=2.5,
                                failures=[{"key": "b",
                                           "status": "timeout"}])
        path = write_bench(tmp_path / "sub" / "BENCH_table9.json",
                           payload)
        loaded = load_bench(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["name"] == "table9"
        assert loaded["scale"] == "quick"
        assert loaded["jobs"] == 3
        assert loaded["rows"] == rows
        assert loaded["failures"][0]["status"] == "timeout"
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
    def test_task_and_failure_rows(self):
        from repro.harness.engine import Task, run_tasks
        from tests.harness.test_engine import raise_on_odd

        run = run_tasks(raise_on_odd, [Task("even", 2), Task("odd", 3)],
                        jobs=1)
        rows = task_rows(run)
        assert [r["key"] for r in rows] == ["task/even", "task/odd"]
        assert rows[0]["status"] == "ok"
        assert isinstance(rows[0]["seconds"], float)
        failures = failure_rows(run)
        assert len(failures) == 1
        assert failures[0]["key"] == "odd"
        assert "odd payload" in failures[0]["error"]


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


def wrap_payload(payload):
    """Module-level engine body (spawn-safe, RPR009)."""
    return {"n": payload}


def times_ten(payload):
    return {"n": payload * 10}


class TestResume:
    """The --resume-from machinery: digest, split, merge."""

    def _partial(self, tmp_path, rows):
        path = tmp_path / "BENCH_partial.json"
        write_bench(path, payload_with(rows))
        return path

    def test_spec_digest_is_stable_and_input_sensitive(self):
        from repro.harness.trajectory import spec_digest

        a = spec_digest(("spec", 300))
        assert a == spec_digest(("spec", 300))
        assert len(a) == 12
        assert a != spec_digest(("spec", 301))

    def test_task_rows_stamp_spec(self):
        from repro.harness.engine import Task, run_tasks
        from repro.harness.trajectory import spec_digest

        run = run_tasks(wrap_payload, [Task("a", 1), Task("b", 2)],
                        jobs=1)
        specs = {"a": spec_digest(1)}
        rows = task_rows(run, specs)
        by_key = {r["key"]: r for r in rows}
        assert by_key["task/a"]["spec"] == spec_digest(1)
        assert "spec" not in by_key["task/b"]

    def test_resume_skips_only_matching_ok_rows(self, tmp_path):
        from repro.harness.engine import Task
        from repro.harness.trajectory import resume_tasks, spec_digest

        tasks = [Task("done", 1), Task("changed", 2),
                 Task("failed", 3), Task("unstamped", 4),
                 Task("new", 5)]
        path = self._partial(tmp_path, [
            {"key": "task/done", "status": "ok",
             "spec": spec_digest(1), "seconds": 0.1, "attempts": 1},
            {"key": "task/changed", "status": "ok",
             "spec": spec_digest(999), "seconds": 0.1, "attempts": 1},
            {"key": "task/failed", "status": "error",
             "spec": spec_digest(3), "seconds": 0.1, "attempts": 2},
            {"key": "task/unstamped", "status": "ok",
             "seconds": 0.1, "attempts": 1},
            {"key": "func-row", "nodes": 17},
        ])
        remaining, previous = resume_tasks(path, tasks)
        assert [t.key for t in remaining] == ["changed", "failed",
                                              "unstamped", "new"]
        assert len(previous) == 5  # verbatim rows, ready to merge

    def test_merge_rows_current_wins_previous_order_kept(self):
        from repro.harness.trajectory import merge_rows

        previous = [{"key": "a", "v": 1}, {"key": "b", "v": 1},
                    {"key": "c", "v": 1}]
        current = [{"key": "b", "v": 2}, {"key": "d", "v": 2}]
        merged = merge_rows(previous, current)
        assert [r["key"] for r in merged] == ["a", "b", "c", "d"]
        assert {r["key"]: r["v"] for r in merged} == {
            "a": 1, "b": 2, "c": 1, "d": 2}

    def test_end_to_end_resume_round(self, tmp_path):
        """Simulated interrupted benchmark: half the tasks recorded,
        resume runs the rest, merged file equals a full run's keys."""
        from repro.harness.engine import Task, run_tasks
        from repro.harness.trajectory import (merge_rows, resume_tasks,
                                              spec_digest)

        tasks = [Task(f"t{i}", i) for i in range(4)]
        specs = {t.key: spec_digest(t.payload) for t in tasks}
        first = run_tasks(times_ten, tasks[:2], jobs=1)
        partial_rows = [{"key": f"row/{o.key}", **o.result}
                        for o in first.outcomes] \
            + task_rows(first, specs)
        path = self._partial(tmp_path, partial_rows)

        remaining, previous = resume_tasks(path, tasks)
        assert [t.key for t in remaining] == ["t2", "t3"]
        second = run_tasks(times_ten, remaining, jobs=1)
        merged = merge_rows(previous,
                            [{"key": f"row/{o.key}", **o.result}
                             for o in second.outcomes]
                            + task_rows(second, specs))
        keys = {r["key"] for r in merged}
        assert keys == {f"row/t{i}" for i in range(4)} \
            | {f"task/t{i}" for i in range(4)}
        # A second resume against the merged file finds nothing to do.
        write_bench(path, payload_with(merged))
        remaining, _ = resume_tasks(path, tasks)
        assert remaining == []


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
