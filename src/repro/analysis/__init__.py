"""Static-analysis and determinism sanitizer suite.

Three layers guard the repo's determinism and resource contracts
(DESIGN.md §7/§8/§13):

* the **static lint pass** — :func:`lint_paths` / :func:`lint_source` and
  the rule registry in :mod:`repro.analysis.rules`, exposed as
  ``repro lint`` on the CLI. Rule families, each local to one module: DET
  (determinism), SIM (process-generator hygiene) and RES (spans and
  history stores open in a ``with`` or are handed off, so they close by
  construction);
* the **runtime race sanitizer** — :class:`RaceSanitizer`, enabled with
  ``Environment(sanitize=True)``, which flags same-(time, priority) events
  with conflicting shared-state accesses (re-exported from
  :mod:`repro.sim.sanitizer`, where it lives so bottom-layer modules can
  import it without cycles);
* the **tie-break shuffle harness** — ``Environment(tie_break_seed=N)`` or
  the ``REPRO_SHUFFLE_SEED`` environment variable, randomizing the order
  of same-(time, priority) events to surface order dependence.
"""

from ..sim.sanitizer import RaceSanitizer, SanitizerViolation
from .linter import (Finding, lint_paths, lint_source, render_findings,
                     render_json)
from .rules import RULES, Rule, all_rules, register

__all__ = [
    "Finding",
    "RULES",
    "RaceSanitizer",
    "Rule",
    "SanitizerViolation",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
    "render_findings",
    "render_json",
]
