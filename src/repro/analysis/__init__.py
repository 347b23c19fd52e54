"""Static analysis tooling: the BDD-aware lint engine.

``repro.analysis.lint`` is a small AST-based lint engine with a rule
registry, per-rule severities, ``# repro-lint: disable=RPRxxx``
suppression comments, and text/JSON/SARIF reporting.  The rules cover
what no run of the code can see: ``repro.analysis.rules`` forbids
recursion in kernel modules and cross-manager node mixing, and
``repro.analysis.rules_flow`` adds the flow-aware rules: session
escape over the provenance layer (``repro.analysis.provenance``), and
a governor checkpoint in every loop of a governed kernel, checked loop
by loop on the AST.  Registered computed-table op tags, the
approximator signature and picklable worker tasks are checked at
runtime instead, by ``ComputedTable.tally``,
``register_approximator`` and ``run_tasks``.

``repro.analysis.sarif`` renders findings in the GitHub code-scanning
SARIF schema.

The runtime counterpart is the graph sanitizer,
:meth:`repro.bdd.manager.Manager.debug_check` (see
:mod:`repro.bdd.sanitize`); ``docs/analysis.md`` documents both halves.
"""

from __future__ import annotations

from . import rules as _rules  # noqa: F401  (RPR001, RPR004)
from . import rules_flow as _rules_flow  # noqa: F401  (RPR008, RPR010)
from .lint import (RULES, FileContext, Rule, Violation, exit_code,
                   lint_paths, lint_source, register_rule, render_json,
                   render_text)
from .sarif import render_sarif

__all__ = [
    "RULES",
    "Rule",
    "FileContext",
    "Violation",
    "register_rule",
    "lint_source",
    "lint_paths",
    "render_text",
    "render_json",
    "render_sarif",
    "exit_code",
]
