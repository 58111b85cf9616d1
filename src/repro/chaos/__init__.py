"""Deterministic chaos engine: seeded fault campaigns, end-to-end
invariants and failure-schedule shrinking.

The attack side of the determinism contract: :mod:`plan` derives fault
schedules from a seed, :mod:`injectors` executes them against a live
deployment, :mod:`invariants` judges what must still hold afterwards,
:mod:`shrink` minimizes any schedule that broke something, and
:mod:`campaign` ties it together per seed. ``repro chaos`` is the CLI
face; ``@chaos_campaign`` the pytest one.
"""

from .campaign import (
    SCENARIOS,
    CampaignConfig,
    CampaignRunner,
    ScenarioContext,
    mttr_from_transitions,
)
from .injectors import InjectorEngine
from .invariants import (
    Invariant,
    InvariantResult,
    OverloadGraceful,
    RunRecord,
    builtin_invariants,
    evaluate_invariants,
)
from .link import ChaosLink
from .plan import FAULT_KINDS, ChaosPlan, FaultEvent, TargetCatalog
from .shrink import ShrinkResult, shrink_failing_seed, shrink_plan

__all__ = [
    "CampaignConfig", "CampaignRunner", "ScenarioContext", "SCENARIOS",
    "mttr_from_transitions",
    "InjectorEngine", "ChaosLink",
    "Invariant", "InvariantResult", "OverloadGraceful", "RunRecord",
    "builtin_invariants", "evaluate_invariants",
    "ChaosPlan", "FaultEvent", "TargetCatalog", "FAULT_KINDS",
    "ShrinkResult", "shrink_plan", "shrink_failing_seed",
]
