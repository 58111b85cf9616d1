"""The ``lint`` CLI verb (stdlib-only, like the rest of the package)."""

from __future__ import annotations

from .linter import lint_paths, render_findings, render_json
from .rules import all_rules

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
    lint = sub.add_parser(
        "lint",
        help="static analysis over python sources "
             "(DET/SIM/RES rules; exits 1 on findings)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="canonical JSON report")

    def run(args, out) -> int:
        # PATH is optional only for --list-rules.
        if not (args.paths or args.list_rules):
            lint.error("the following arguments are required: PATH")
        return cmd_lint(args, out)

    lint.set_defaults(func=run)


def cmd_lint(args, out) -> int:
    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.rule_id}  {rule.summary}\n")
        return 0
    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.as_json:
        out.write(render_json(findings))
    else:
        out.write(render_findings(findings) + "\n")
    return 1 if findings else 0
