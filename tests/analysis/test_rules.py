"""Rule corpus tests: every fixture triggers (or stays silent) exactly
as designed, and the CLI exit codes agree."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.cli import main

CORPUS = Path(__file__).parent / "lint_corpus"


def lint_fixture(name: str):
    return lint_paths([str(CORPUS / name)])


def rule_ids(violations) -> set[str]:
    return {v.rule for v in violations}


# -- trigger fixtures --------------------------------------------------

#: fixture -> (rule, the lines its findings sit on, in order); a
#: fixture fires its own rule and no other
TRIGGERS = {
    "rpr001_trigger.py": ("RPR001", [5, 11, 15]),  # walk, even, odd
    # for-loop (image_sweep), checkpoint-on-break (drain), two
    # worklist whiles (mark, drain_total), unchecked inner while
    # (drain_batches)
    "rpr010_trigger.py": ("RPR010", [14, 21, 33, 43, 52]),
}


@pytest.mark.parametrize("fixture", sorted(TRIGGERS))
def test_trigger_fixture(fixture):
    rule, lines = TRIGGERS[fixture]
    violations = lint_fixture(fixture)
    assert [(v.rule, v.line) for v in violations] == \
        [(rule, line) for line in lines], \
        f"{fixture}: expected {rule} findings on lines {lines}, got " \
        f"{[(v.rule, v.line, v.message) for v in violations]}"


def test_kernel_pragma_escalates_to_error():
    violations = lint_fixture("rpr001_trigger.py")
    assert violations and all(v.severity == "error" for v in violations)


def test_non_kernel_recursion_is_warning():
    violations = lint_fixture("rpr001_warning.py")
    assert rule_ids(violations) == {"RPR001"}
    assert all(v.severity == "warning" for v in violations)


def test_mutual_recursion_message_names_cycle():
    violations = lint_fixture("rpr001_trigger.py")
    mutual = [v for v in violations if "even" in v.message]
    assert mutual
    assert any("even -> odd" in v.message for v in mutual)


# -- no-trigger fixtures -----------------------------------------------

@pytest.mark.parametrize("fixture", [
    "rpr001_ok.py",
    "rpr010_ok.py",
])
def test_ok_fixture_is_clean(fixture):
    violations = lint_fixture(fixture)
    assert violations == [], \
        f"{fixture}: unexpected {[(v.rule, v.line, v.message) for v in violations]}"


# -- suppression fixtures ----------------------------------------------

@pytest.mark.parametrize("fixture", [
    "rpr001_suppressed.py",
    "rpr010_suppressed.py",
])
def test_suppressed_fixture_is_clean(fixture):
    assert lint_fixture(fixture) == []


def test_new_rule_severities():
    violations = lint_fixture("rpr010_trigger.py")
    assert violations
    assert all(v.severity == "error" for v in violations)


# -- the repository itself is clean ------------------------------------

def test_repository_lints_clean():
    # The paths of CI's strict lint step.
    root = Path(__file__).resolve().parents[2]
    benchmarks = root / "benchmarks"
    paths = [root / "src", root / "tests", benchmarks / "conftest.py",
             *sorted(benchmarks.glob("bench_*.py")), root / "examples"]
    violations = lint_paths([str(path) for path in paths])
    assert violations == [], \
        [(v.path, v.line, v.rule) for v in violations]


# -- CLI integration ---------------------------------------------------

def test_cli_lint_clean_tree_exits_zero(capsys):
    root = Path(__file__).resolve().parents[2]
    code = main(["lint", str(root / "src" / "repro" / "analysis")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 error(s)" in out


def test_cli_lint_trigger_fixture_exits_nonzero(capsys):
    code = main(["lint", str(CORPUS / "rpr010_trigger.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR010" in out
    assert "rpr010_trigger.py:14" in out


def test_cli_lint_strict_promotes_warnings(capsys):
    fixture = str(CORPUS / "rpr001_warning.py")
    assert main(["lint", fixture]) == 0
    capsys.readouterr()
    assert main(["lint", "--strict", fixture]) == 1


def test_cli_lint_json_output(capsys):
    import json
    code = main(["lint", "--format", "json",
                 str(CORPUS / "rpr010_trigger.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["errors"] == 5
    assert {v["rule"] for v in payload["violations"]} == {"RPR010"}


def test_cli_lint_rule_selection(capsys):
    fixture = str(CORPUS / "rpr001_trigger.py")
    assert main(["lint", "--select", "RPR010", fixture]) == 0
    capsys.readouterr()
    assert main(["lint", "--select", "RPR001", fixture]) == 1
    # --select has one spelling: the old --rules alias is gone.
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "RPR001", fixture])
    assert excinfo.value.code == 2


def test_cli_lint_select_and_ignore(capsys):
    fixture = str(CORPUS / "rpr001_trigger.py")
    assert main(["lint", "--select", "RPR001", fixture]) == 1
    capsys.readouterr()
    assert main(["lint", "--ignore", "RPR001", fixture]) == 0


def test_cli_lint_unknown_rule_is_usage_error():
    # RPR011 (ref-deref pairing) is no rule: the store has no
    # incref/decref to pair.  RPR003, RPR004, RPR005, RPR008 and
    # RPR009 are runtime checks now (ComputedTable.tally, the manager
    # check of every operation, register_approximator, the session's
    # owner thread, the pickling of every task in run_tasks), and
    # RPR002 went with the store factory it guarded.
    for option, rule in (("--select", "RPR999"), ("--ignore", "bogus"),
                         ("--select", "RPR011"), ("--select", "RPR002"),
                         ("--select", "RPR003"), ("--select", "RPR004"),
                         ("--select", "RPR005"), ("--select", "RPR008"),
                         ("--select", "RPR009")):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", option, rule, "src"])
        assert excinfo.value.code == 2


def test_cli_lint_sarif_output(capsys):
    import json
    fixture = str(CORPUS / "rpr010_trigger.py")
    code = main(["lint", "--format", "sarif", fixture])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    results = document["runs"][0]["results"]
    assert results and all(r["ruleId"] == "RPR010" for r in results)


def test_cli_lint_output_file(tmp_path, capsys):
    import json
    fixture = str(CORPUS / "rpr010_trigger.py")
    out_file = tmp_path / "lint.sarif"
    code = main(["lint", "--format", "sarif",
                 "--output", str(out_file), fixture])
    assert code == 1
    assert capsys.readouterr().out == ""
    document = json.loads(out_file.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"


def test_cli_lint_baseline_flags_are_usage_errors():
    # The tree lints clean with no accepted-findings file, so the lint
    # has no baseline to read or write.
    fixture = str(CORPUS / "rpr001_warning.py")
    for flags in (["--baseline", "b.json"], ["--write-baseline"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--strict", *flags, fixture])
        assert excinfo.value.code == 2
