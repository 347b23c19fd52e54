"""The lint engine: rule registry, suppressions, reporting.

A *rule* is a callable taking a :class:`FileContext` and yielding
:class:`Violation` records; it is registered under a stable ``RPRxxx``
identifier with a default severity.  The engine owns everything rules
should not have to care about:

* parsing (one :func:`ast.parse` per file, shared by all rules),
* suppression comments — ``# repro-lint: disable=RPR001[,RPR010]`` on a
  line suppresses those rules for that line (bare ``disable`` suppresses
  every rule), and ``# repro-lint: disable-file=RPR001`` anywhere in the
  file suppresses a rule for the whole file,
* directory walking with default excludes (``lint_corpus`` fixture
  directories, caches); explicitly named files are always linted,
* text (``path:line:col: RPRxxx message``) and JSON output.

Severities are ``error`` and ``warning``.  Errors are meant to gate CI;
warnings surface debt without failing the build (``--strict`` promotes
them).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path, PurePath

#: Severity levels, weakest first.
SEVERITIES = ("warning", "error")

#: Directory names skipped while walking a directory argument.  Explicit
#: file arguments bypass this list.  ``lint_corpus`` holds the rule test
#: fixtures — snippets that *must* trigger rules (see tests/analysis).
DEFAULT_EXCLUDE_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", "lint_corpus",
})

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*(?:=\s*([A-Za-z0-9_,\s]+))?")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, a message.

    ``fingerprint`` is a line-drift-stable identity, reported as the
    SARIF ``partialFingerprints``: a hash over the rule id, the trailing
    path components, the *text* of the flagged source line and an
    occurrence index — so re-ordering unrelated code keeps a finding's
    identity.  It is stamped by :func:`lint_source`; rules leave it
    empty.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    fingerprint: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    id: str
    name: str
    severity: str
    description: str
    check: Callable[["FileContext"], Iterator[Violation]]


#: The rule registry, keyed by ``RPRxxx`` identifier.
RULES: dict[str, Rule] = {}


def register_rule(rule_id: str, name: str, severity: str,
                  description: str) -> Callable[
                      [Callable[["FileContext"], Iterator[Violation]]],
                      Callable[["FileContext"], Iterator[Violation]]]:
    """Register a rule check function under ``rule_id``.

    The decorated function receives a :class:`FileContext` and yields
    :class:`Violation` records, built with
    :meth:`FileContext.violation`.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def decorator(check: Callable[["FileContext"], Iterator[Violation]]
                  ) -> Callable[["FileContext"], Iterator[Violation]]:
        if rule_id in RULES:
            raise ValueError(f"rule {rule_id} already registered")
        RULES[rule_id] = Rule(id=rule_id, name=name, severity=severity,
                              description=description, check=check)
        return check

    return decorator


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line -> rule ids disabled on that line ("*" disables all)
        self.line_disables: dict[int, set[str]] = {}
        #: rule ids disabled for the whole file
        self.file_disables: set[str] = set()
        self._scan_suppressions()

    def _scan_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(token.string)
                if match is None:
                    continue
                kind, spec = match.group(1), match.group(2)
                rules = ({r.strip() for r in spec.split(",") if r.strip()}
                         if spec else {"*"})
                if kind == "disable-file":
                    self.file_disables |= rules
                else:
                    self.line_disables.setdefault(
                        token.start[0], set()).update(rules)
        except tokenize.TokenError:
            # Unterminated string etc. — ast.parse already succeeded, so
            # just proceed without suppression info.
            pass

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_disables or "*" in self.file_disables:
            return True
        disabled = self.line_disables.get(line, ())
        return rule_id in disabled or "*" in disabled

    def violation(self, rule_id: str, node: ast.AST, message: str,
                  severity: str | None = None) -> Violation:
        """Build a Violation located at an AST node."""
        rule = RULES[rule_id]
        return Violation(rule=rule_id,
                         severity=severity or rule.severity,
                         path=self.path, line=node.lineno,
                         col=node.col_offset, message=message)


def _stamp_fingerprints(violations: list[Violation],
                        source: str) -> list[Violation]:
    """Attach line-drift-stable fingerprints (see :class:`Violation`)."""
    lines = source.splitlines()
    seen: dict[tuple[str, str, str], int] = {}
    out: list[Violation] = []
    for violation in violations:
        text = lines[violation.line - 1].strip() \
            if 0 < violation.line <= len(lines) else ""
        tail = "/".join(PurePath(violation.path).parts[-3:])
        key = (violation.rule, tail, text)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        digest = hashlib.sha1(
            f"{violation.rule}|{tail}|{text}|{occurrence}".encode(
                "utf-8")).hexdigest()[:20]
        out.append(replace(violation, fingerprint=digest))
    return out


def _unknown_suppressions(ctx: FileContext) -> Iterator[Violation]:
    """Engine diagnostic: ``disable=`` naming a rule id that does not
    exist silently suppresses nothing — surface it as a warning."""
    known = set(RULES) | {"*", "RPR000"}
    for line, ids in sorted(ctx.line_disables.items()):
        for rule_id in sorted(ids - known):
            yield Violation(
                rule="RPR000", severity="warning", path=ctx.path,
                line=line, col=0,
                message=f"unknown rule id {rule_id!r} in suppression "
                        f"comment (known: {', '.join(sorted(RULES))})")
    for rule_id in sorted(ctx.file_disables - known):
        yield Violation(
            rule="RPR000", severity="warning", path=ctx.path,
            line=1, col=0,
            message=f"unknown rule id {rule_id!r} in disable-file "
                    f"suppression (known: {', '.join(sorted(RULES))})")


def lint_source(source: str, path: str = "<string>",
                rules: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None) -> list[Violation]:
    """Lint one source string; returns unsuppressed violations.

    ``rules`` selects a subset of the registry (default: all);
    ``ignore`` removes rules from whatever was selected.  Engine
    diagnostics (``RPR000`` syntax errors and unknown suppression ids)
    are always produced.
    """
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [Violation(rule="RPR000", severity="error", path=path,
                          line=exc.lineno or 1, col=exc.offset or 0,
                          message=f"syntax error: {exc.msg}")]
    selected = [RULES[r] for r in rules] if rules is not None \
        else list(RULES.values())
    if ignore is not None:
        ignored = set(ignore)
        selected = [rule for rule in selected
                    if rule.id not in ignored]
    out: list[Violation] = []
    for rule in selected:
        for violation in rule.check(ctx):
            if not ctx.is_suppressed(violation.rule, violation.line):
                out.append(violation)
    for violation in _unknown_suppressions(ctx):
        if not ctx.is_suppressed(violation.rule, violation.line):
            out.append(violation)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return _stamp_fingerprints(out, source)


def iter_python_files(paths: Iterable[str | Path],
                      exclude_dirs: frozenset[str] = DEFAULT_EXCLUDE_DIRS
                      ) -> Iterator[Path]:
    """Expand path arguments into Python files.

    Directories are walked recursively, skipping ``exclude_dirs``;
    explicitly named files are yielded as-is (even inside an excluded
    directory — that is how the rule corpus tests lint their fixtures).
    """
    for item in paths:
        path = Path(item)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if exclude_dirs.isdisjoint(candidate.parts):
                    yield candidate
        else:
            yield path


def lint_paths(paths: Iterable[str | Path],
               rules: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None) -> list[Violation]:
    """Lint files/directory trees; returns all unsuppressed violations."""
    out: list[Violation] = []
    for path in iter_python_files(paths):
        out.extend(lint_source(path.read_text(encoding="utf-8"),
                               str(path), rules=rules, ignore=ignore))
    return out


def render_text(violations: list[Violation]) -> str:
    """One ``path:line:col: severity RPRxxx message`` line per finding."""
    lines = [f"{v.path}:{v.line}:{v.col}: {v.severity} {v.rule} "
             f"{v.message}" for v in violations]
    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(violations: list[Violation]) -> str:
    """JSON document: violations plus per-rule and total counts."""
    errors = sum(1 for v in violations if v.severity == "error")
    per_rule: dict[str, int] = {}
    for violation in violations:
        per_rule[violation.rule] = per_rule.get(violation.rule, 0) + 1
    return json.dumps({
        "violations": [v.as_dict() for v in violations],
        "errors": errors,
        "warnings": len(violations) - errors,
        "per_rule": dict(sorted(per_rule.items())),
    }, indent=2)


def exit_code(violations: list[Violation], strict: bool = False) -> int:
    """1 if any error (or, under ``strict``, any finding at all)."""
    if strict:
        return 1 if violations else 0
    return 1 if any(v.severity == "error" for v in violations) else 0
