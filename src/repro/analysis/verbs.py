"""The ``lint`` CLI verb (stdlib-only, like the rest of the package)."""

from __future__ import annotations

from pathlib import Path

from ..util.atomicio import atomic_write_text
from .linter import (apply_baseline, format_baseline, lint_paths,
                     load_baseline, render_findings, render_json,
                     render_sarif)
from .rules import RULES, all_rules

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
    lint = sub.add_parser(
        "lint",
        help="whole-program static analysis over python sources "
             "(DET/SIM/RES/CTX/API rules; exits 1 on findings)")
    lint.add_argument("paths", nargs="+", metavar="PATH",
                      help="files or directories to lint")
    lint.add_argument("--rule", action="append", dest="rule_ids",
                      metavar="RULE",
                      help="restrict to this rule id or family prefix, "
                           "e.g. RES001 or RES (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="canonical JSON report")
    lint.add_argument("--sarif", action="store_true",
                      help="SARIF 2.1.0 report (canonical, byte-stable)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings listed in this baseline file")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="write current findings as a baseline and exit 0")
    lint.set_defaults(func=cmd_lint)


def cmd_lint(args, out) -> int:
    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.rule_id}  {rule.summary}\n")
        return 0
    if args.as_json and args.sarif:
        out.write("error: --json and --sarif are mutually exclusive\n")
        return 2
    rules = None
    if args.rule_ids:
        selected = []
        unknown = []
        for token in args.rule_ids:
            if token in RULES:
                selected.append(RULES[token])
                continue
            family = [rule for rule_id, rule in sorted(RULES.items())
                      if rule_id.startswith(token)]
            if family and token.isalpha():
                selected.extend(family)
            else:
                unknown.append(token)
        if unknown:
            out.write(f"unknown rule(s): {', '.join(unknown)}; "
                      f"known: {', '.join(sorted(RULES))}\n")
            return 2
        rules = selected
    try:
        findings = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.baseline:
        try:
            text = Path(args.baseline).read_text(encoding="utf-8")
        except OSError as exc:
            out.write(f"error: cannot read baseline: {exc}\n")
            return 2
        findings = apply_baseline(findings, load_baseline(text))
    if args.write_baseline:
        atomic_write_text(args.write_baseline, format_baseline(findings))
        out.write(f"wrote {len(findings)} finding(s) to "
                  f"{args.write_baseline}\n")
        return 0
    if args.as_json:
        out.write(render_json(findings))
    elif args.sarif:
        out.write(render_sarif(findings))
    else:
        out.write(render_findings(findings) + "\n")
    return 1 if findings else 0
