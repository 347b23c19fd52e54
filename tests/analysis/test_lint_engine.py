"""Engine-level tests: suppressions, walking, rendering, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import (RULES, Violation, exit_code, lint_paths,
                            lint_source, render_json, render_text)
from repro.analysis.lint import iter_python_files

CORPUS = Path(__file__).parent / "lint_corpus"


def rule_ids(violations) -> set[str]:
    return {v.rule for v in violations}


def test_all_rules_registered():
    assert set(RULES) == {"RPR001", "RPR010"}
    for rule in RULES.values():
        assert rule.severity in ("warning", "error")
        assert rule.description


def test_syntax_error_reported_as_rpr000():
    violations = lint_source("def broken(:\n", path="bad.py")
    assert [v.rule for v in violations] == ["RPR000"]
    assert violations[0].severity == "error"
    assert exit_code(violations) == 1


def test_line_suppression_single_rule():
    source = (
        "def f(n):  # repro-lint: disable=RPR001\n"
        "    return f(n - 1)\n"
    )
    assert lint_source(source) == []
    # The same source without the comment does trigger.
    assert "RPR001" in rule_ids(lint_source(source.replace(
        "  # repro-lint: disable=RPR001", "")))


def test_line_suppression_multiple_rules():
    source = (
        "def f(n):  # repro-lint: disable=RPR001, RPR010\n"
        "    return f(n - 1)\n"
    )
    assert lint_source(source) == []


def test_bare_disable_suppresses_everything():
    source = (
        "def f(n):  # repro-lint: disable\n"
        "    return f(n - 1)\n"
    )
    assert lint_source(source) == []


def test_file_level_suppression():
    source = (
        "# repro-lint: disable-file=RPR001\n"
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g(n):\n"
        "    return g(n - 1)\n"
    )
    assert lint_source(source) == []


def test_unrelated_suppression_does_not_hide():
    source = (
        "def f(n):  # repro-lint: disable=RPR010\n"
        "    return f(n - 1)\n"
    )
    assert "RPR001" in rule_ids(lint_source(source))


def test_rule_selection():
    source = (
        "def f(n):\n"
        "    return f(n - 1)\n"
    )
    assert lint_source(source, rules=["RPR010"]) == []
    assert rule_ids(lint_source(source, rules=["RPR001"])) == {"RPR001"}


def test_directory_walk_skips_corpus():
    files = list(iter_python_files([str(Path(__file__).parent)]))
    assert not any("lint_corpus" in str(f) for f in files)
    assert any(f.name == "test_lint_engine.py" for f in files)


def test_explicit_file_bypasses_excludes():
    fixture = CORPUS / "rpr001_trigger.py"
    files = list(iter_python_files([str(fixture)]))
    assert files == [fixture]
    assert "RPR001" in rule_ids(lint_paths([str(fixture)]))


def test_render_text_format():
    violations = [Violation(rule="RPR001", severity="error",
                            path="x.py", line=3, col=4, message="boom")]
    text = render_text(violations)
    assert "x.py:3:4: error RPR001 boom" in text
    assert "1 error(s), 0 warning(s)" in text


def test_render_json_format():
    violations = [Violation(rule="RPR010", severity="warning",
                            path="y.py", line=1, col=0, message="m")]
    payload = json.loads(render_json(violations))
    assert payload["errors"] == 0
    assert payload["warnings"] == 1
    assert payload["violations"][0]["rule"] == "RPR010"
    assert payload["violations"][0]["line"] == 1


def test_exit_code_strict_promotes_warnings():
    warning = [Violation(rule="RPR001", severity="warning", path="z.py",
                         line=1, col=0, message="m")]
    assert exit_code(warning) == 0
    assert exit_code(warning, strict=True) == 1
    assert exit_code([]) == 0
    assert exit_code([], strict=True) == 0


def test_violations_sorted_and_located():
    source = (
        "def b(n):\n"
        "    return b(n - 1)\n"
        "\n"
        "def a(n):\n"
        "    return a(n - 1)\n"
    )
    violations = lint_source(source, path="mod.py")
    lines = [v.line for v in violations]
    assert lines == sorted(lines)
    assert all(v.path == "mod.py" for v in violations)


# -- suppression edge cases --------------------------------------------

def test_file_disable_and_line_disable_interplay():
    # File-level disable of one rule composes with line-level disables
    # of another: each suppression is scoped independently.
    source = (
        "# repro-lint: disable-file=RPR001\n"
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g(n):  # repro-lint: disable=RPR010\n"
        "    return g(n - 1)\n"
    )
    # RPR001 is file-disabled everywhere — including on the line whose
    # own pragma only names RPR010.
    assert lint_source(source) == []


def test_unknown_rule_id_in_line_suppression_is_diagnosed():
    source = "x = 1  # repro-lint: disable=RPR999\n"
    violations = lint_source(source, path="m.py")
    assert [v.rule for v in violations] == ["RPR000"]
    assert violations[0].severity == "warning"
    assert "RPR999" in violations[0].message
    assert violations[0].line == 1


def test_unknown_rule_id_in_file_suppression_is_diagnosed():
    source = "# repro-lint: disable-file=RPR404\nx = 1\n"
    violations = lint_source(source, path="m.py")
    assert [v.rule for v in violations] == ["RPR000"]
    assert "RPR404" in violations[0].message


def test_unknown_suppression_diagnostic_is_itself_suppressible():
    source = "x = 1  # repro-lint: disable=RPR999, RPR000\n"
    assert lint_source(source) == []


def test_pragma_on_decorated_def_line():
    # The pragma must sit on the def line (where the finding lands),
    # not on the decorator line above it.
    source = (
        "import functools\n"
        "@functools.cache\n"
        "def f(n):  # repro-lint: disable=RPR001\n"
        "    return f(n - 1)\n"
    )
    assert lint_source(source) == []
    on_decorator = source.replace(
        "def f(n):  # repro-lint: disable=RPR001", "def f(n):").replace(
        "@functools.cache",
        "@functools.cache  # repro-lint: disable=RPR001")
    assert "RPR001" in rule_ids(lint_source(on_decorator))


def test_pragma_on_nested_def():
    source = (
        "def outer():\n"
        "    def inner(n):  # repro-lint: disable=RPR001\n"
        "        return inner(n - 1)\n"
        "    return inner\n"
    )
    assert lint_source(source) == []


# -- --ignore ----------------------------------------------------------

def test_ignore_removes_rule_from_selection():
    source = (
        "def f(n):\n"
        "    return f(n - 1)\n"
    )
    assert "RPR001" in rule_ids(lint_source(source))
    assert lint_source(source, ignore=["RPR001"]) == []
    # ignore composes with select: select minus ignore.
    assert lint_source(source, rules=["RPR001"],
                       ignore=["RPR001"]) == []


# -- fingerprints ------------------------------------------------------

def test_fingerprints_stable_under_line_drift():
    source = (
        "def f(n):\n"
        "    return f(n - 1)\n"
    )
    shifted = "import os\n\n\n" + source
    original = lint_source(source, path="pkg/mod.py")
    drifted = lint_source(shifted, path="pkg/mod.py")
    assert original and drifted
    assert original[0].line != drifted[0].line
    assert original[0].fingerprint == drifted[0].fingerprint


def test_fingerprints_distinguish_duplicate_lines():
    # Two findings on textually identical lines: the occurrence index
    # keeps their fingerprints distinct.
    source = (
        "# repro-lint: governed\n"
        "def drain(work):\n"
        "    while work:\n"
        "        work.pop()\n"
        "    while work:\n"
        "        work.pop()\n"
    )
    violations = lint_source(source, path="m.py")
    prints = [v.fingerprint for v in violations]
    assert len(prints) == len(set(prints)) == 2


# -- SARIF -------------------------------------------------------------

def test_render_sarif_schema_and_results():
    from repro.analysis import render_sarif
    violations = lint_source(
        "def f(n):\n    return f(n - 1)\n", path="pkg/mod.py")
    document = json.loads(render_sarif(violations))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    catalogued = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert catalogued == set(RULES)
    (result,) = [r for r in run["results"] if r["ruleId"] == "RPR001"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "pkg/mod.py"
    assert location["region"]["startLine"] == 1
    assert result["partialFingerprints"]["reproLint/v1"]


def test_render_sarif_empty_still_carries_catalogue():
    from repro.analysis import render_sarif
    document = json.loads(render_sarif([]))
    (run,) = document["runs"]
    assert run["results"] == []
    assert len(run["tool"]["driver"]["rules"]) == len(RULES)


# -- JSON per-rule counts ----------------------------------------------

def test_render_json_per_rule_counts():
    violations = lint_source(
        "def f(n):\n    return f(n - 1)\n"
        "def g(n):\n    return g(n - 1)\n", path="m.py")
    payload = json.loads(render_json(violations))
    assert payload["per_rule"] == {"RPR001": 2}
    assert set(payload) == {"violations", "errors", "warnings",
                            "per_rule"}
