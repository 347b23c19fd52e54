"""BENCH_*.json trajectory files and the regression comparator."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.harness.trajectory import (SCHEMA_VERSION, bench_payload,
                                      compare, compare_files,
                                      failure_rows, load_bench,
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


class TestCompare:
    def test_identical_is_ok(self):
        rows = [{"key": "a", "nodes": 5, "seconds": 1.0}]
        report = compare(payload_with(rows), payload_with(rows))
        assert report.ok
        assert "OK" in report.summary()

    def test_time_regression(self):
        base = [{"key": "a", "seconds": 1.0}]
        cur = [{"key": "a", "seconds": 2.0}]
        report = compare(payload_with(base), payload_with(cur),
                         tolerance=1.5)
        assert not report.ok
        assert report.regressions[0].ratio == pytest.approx(2.0)
        assert "REGRESSION" in report.summary()

    def test_tolerance_allows_slack(self):
        base = [{"key": "a", "seconds": 1.0}]
        cur = [{"key": "a", "seconds": 1.4}]
        report = compare(payload_with(base), payload_with(cur),
                         tolerance=1.5)
        assert report.ok

    def test_time_floor_suppresses_micro_rows(self):
        base = [{"key": "a", "seconds": 0.01}]
        cur = [{"key": "a", "seconds": 10.0}]
        report = compare(payload_with(base), payload_with(cur),
                         tolerance=1.5, time_floor=0.05)
        assert report.ok

    def test_deterministic_mismatch_fails(self):
        base = [{"key": "a", "nodes": 5, "states": 100}]
        cur = [{"key": "a", "nodes": 6, "states": 100}]
        report = compare(payload_with(base), payload_with(cur))
        assert not report.ok
        assert report.mismatched[0].mismatches == {"nodes": (5, 6)}
        assert "MISMATCH" in report.summary()

    def test_speedup_is_not_a_mismatch(self):
        base = [{"key": "a", "nodes": 5, "seconds": 2.0}]
        cur = [{"key": "a", "nodes": 5, "seconds": 0.2}]
        report = compare(payload_with(base), payload_with(cur))
        assert report.ok

    def test_missing_row_fails_added_does_not(self):
        base = [{"key": "a", "nodes": 1}, {"key": "b", "nodes": 2}]
        cur = [{"key": "a", "nodes": 1}, {"key": "c", "nodes": 3}]
        report = compare(payload_with(base), payload_with(cur))
        assert report.missing == ["b"]
        assert report.added == ["c"]
        assert not report.ok

    def test_optional_governor_counters_skipped_when_absent(self):
        # Baselines written before the governor existed carry no
        # aborts/degradations fields; rows with the counters must still
        # compare clean against them — in either direction.
        old = [{"key": "a", "nodes": 5}]
        new = [{"key": "a", "nodes": 5, "aborts": 3, "degradations": 1}]
        assert compare(payload_with(old), payload_with(new)).ok
        assert compare(payload_with(new), payload_with(old)).ok

    def test_optional_governor_counters_compared_when_present(self):
        base = [{"key": "a", "aborts": 0, "degradations": 0}]
        cur = [{"key": "a", "aborts": 2, "degradations": 0}]
        report = compare(payload_with(base), payload_with(cur))
        assert not report.ok
        assert report.mismatched[0].mismatches == {"aborts": (0, 2)}

    def test_optional_backend_label_skipped_when_absent(self):
        # Baselines written before pluggable node stores carry no
        # backend field; labelled rows still compare clean against
        # them, but two labelled files must agree.
        old = [{"key": "a", "nodes": 5}]
        new = [{"key": "a", "nodes": 5, "backend": "array"}]
        assert compare(payload_with(old), payload_with(new)).ok
        assert compare(payload_with(new), payload_with(old)).ok
        other = [{"key": "a", "nodes": 5, "backend": "object"}]
        report = compare(payload_with(other), payload_with(new))
        assert not report.ok
        assert report.mismatched[0].mismatches \
            == {"backend": ("object", "array")}

    def test_floats_and_manager_stats_ignored(self):
        base = [{"key": "a", "density": 0.5,
                 "manager_stats": {"nodes": 1}}]
        cur = [{"key": "a", "density": 0.9,
                "manager_stats": {"nodes": 999}}]
        report = compare(payload_with(base), payload_with(cur))
        assert report.ok


class TestCli:
    def _write(self, tmp_path, name, rows):
        return str(write_bench(tmp_path / name, payload_with(rows)))

    def test_cli_ok_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json",
                           [{"key": "a", "nodes": 1, "seconds": 1.0}])
        cur = self._write(tmp_path, "cur.json",
                          [{"key": "a", "nodes": 1, "seconds": 1.1}])
        assert cli_main(["trajectory", base, cur]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_cli_regression_exit_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json",
                           [{"key": "a", "seconds": 1.0}])
        cur = self._write(tmp_path, "cur.json",
                          [{"key": "a", "seconds": 9.0}])
        assert cli_main(["trajectory", base, cur]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_tolerance_flag(self, tmp_path):
        base = self._write(tmp_path, "base.json",
                           [{"key": "a", "seconds": 1.0}])
        cur = self._write(tmp_path, "cur.json",
                          [{"key": "a", "seconds": 9.0}])
        assert cli_main(["trajectory", base, cur,
                         "--tolerance", "10"]) == 0

    def test_cli_missing_file_is_systemexit(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["trajectory", str(tmp_path / "nope.json"),
                      str(tmp_path / "nope2.json")])

    def test_compare_files(self, tmp_path):
        rows = [{"key": "a", "nodes": 2}]
        base = self._write(tmp_path, "base.json", rows)
        cur = self._write(tmp_path, "cur.json", rows)
        assert compare_files(base, cur).ok


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

    def test_spec_field_is_optional_in_comparison(self):
        base = payload_with([{"key": "task/a", "status": "ok",
                              "seconds": 0.1, "attempts": 1}])
        stamped = payload_with([{"key": "task/a", "status": "ok",
                                 "seconds": 0.1, "attempts": 1,
                                 "spec": "abc123"}])
        # A freshly stamped run compares clean against a pre-resume
        # baseline (spec is an _OPTIONAL_FIELDS member)...
        assert compare(base, stamped).ok
        # ...but two stamped runs must agree.
        other = payload_with([{"key": "task/a", "status": "ok",
                               "seconds": 0.1, "attempts": 1,
                               "spec": "different"}])
        report = compare(stamped, other)
        assert not report.ok
        assert "spec" in report.mismatched[0].mismatches

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
