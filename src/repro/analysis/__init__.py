"""Static-analysis suite for the determinism and resource contracts.

Two layers guard the repo's determinism and resource contracts
(DESIGN.md §7/§8/§13):

* the **static lint pass** — :func:`lint_paths` / :func:`lint_source` and
  the rule registry in :mod:`repro.analysis.rules`, exposed as
  ``repro lint`` on the CLI. Rule families, each local to one module: DET
  (determinism), SIM (process-generator hygiene) and RES (spans and
  history stores open in a ``with`` or are handed off, so they close by
  construction);
* the **tie-break shuffle harness**, the one runtime determinism oracle —
  ``Environment(tie_break_seed=N)`` or the ``REPRO_SHUFFLE_SEED``
  environment variable, randomizing the order of same-(time, priority)
  events; the tests require the labs' outputs to be bit-equal under it.
"""

from .linter import (Finding, lint_paths, lint_source, render_findings,
                     render_json)
from .rules import RULES, Rule, all_rules, register

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
    "render_findings",
    "render_json",
]
