"""Driver for the static-analysis pass (``repro lint``).

Parses each file with the stdlib :mod:`ast` and runs every registered
rule from :mod:`repro.analysis.rules` over it. Rules are local: each sees
one module at a time.

Pragma suppressions:

``# repro: allow[<rule>]``
    on a line: suppress that rule for that line;
``# repro: allow-file[<rule>]``
    anywhere in the file: suppress that rule for the whole file.

Multiple rules may be listed comma-separated inside the brackets. Unknown
rule names in pragmas are themselves reported (a stale pragma is a lie
about the code).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .rules import RULES, ModuleInfo, all_rules

__all__ = ["Finding", "lint_source", "lint_paths", "render_findings",
           "render_json"]

_PRAGMA = re.compile(r"#\s*repro:\s*(allow|allow-file)\[([A-Za-z0-9_,\s]*)\]")


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a file:line with a fix hint."""

    path: str
    line: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def _parse_pragmas(source: str):
    """Return ``(line_allows, file_allows, bad_pragmas)``.

    ``line_allows`` maps line number -> set of rule ids allowed there;
    ``file_allows`` is the set of rule ids allowed file-wide;
    ``bad_pragmas`` lists (line, token) for unknown rule names.
    """
    line_allows: dict[int, set] = {}
    file_allows: set = set()
    bad: list[tuple] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _PRAGMA.finditer(line):
            scope, rules_text = match.groups()
            for token in rules_text.split(","):
                token = token.strip()
                if not token:
                    continue
                if token not in RULES:
                    bad.append((lineno, token))
                    continue
                if scope == "allow-file":
                    file_allows.add(token)
                else:
                    line_allows.setdefault(lineno, set()).add(token)
    return line_allows, file_allows, bad


def _lint_file(source: str, path: str) -> list:
    """Findings for one file: a syntax error, or pragma and rule findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1, rule="E999",
                        message=f"syntax error: {exc.msg}")]
    line_allows, file_allows, bad = _parse_pragmas(source)
    findings = [Finding(path=path, line=lineno, rule="PRAGMA",
                        message=f"pragma names unknown rule {token!r}",
                        hint=f"known rules: {', '.join(sorted(RULES))}")
                for lineno, token in bad]
    module = ModuleInfo(tree)
    for rule in all_rules():
        if rule.rule_id in file_allows:
            continue
        for line, message in rule.check(module):
            if rule.rule_id not in line_allows.get(line, ()):
                findings.append(Finding(
                    path=path, line=line, rule=rule.rule_id,
                    message=message, hint=rule.hint))
    return findings


def _sorted(findings: list) -> list:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def lint_source(source: str) -> list:
    """Lint one module's source text; returns sorted :class:`Finding`s."""
    return _sorted(_lint_file(source, "<string>"))


def _iter_py_files(paths: Iterable) -> list:
    files: list = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


def lint_paths(paths: Iterable) -> list:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list = []
    for path in _iter_py_files(paths):
        findings.extend(_lint_file(path.read_text(encoding="utf-8"),
                                   str(path)))
    return _sorted(findings)


# ---------------------------------------------------------------------------
# Renderers


def render_findings(findings: Sequence) -> str:
    """Human-readable report, one block per finding plus a summary line."""
    if not findings:
        return "repro lint: clean"
    lines = [finding.render() for finding in findings]
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    summary = ", ".join(f"{rule}: {count}"
                        for rule, count in sorted(by_rule.items()))
    lines.append(f"repro lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence) -> str:
    """Canonical JSON report (sorted keys, stable ordering, no clocks)."""
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message, "hint": f.hint}
            for f in findings
        ],
        "summary": {"total": len(findings), "by_rule": by_rule},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
