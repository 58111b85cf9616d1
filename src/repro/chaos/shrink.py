"""Failure-schedule shrinking — delta debugging over chaos plans.

When a campaign finds a violating plan, the interesting artifact is not
the five-event schedule that tripped it but the *smallest* schedule that
still does. :func:`shrink_plan` runs classic ddmin over the event list
(drop chunks, keep the complement if it still fails), then an attribute
pass (halve durations and fault parameters, zero rates) — every trial is
a full deterministic re-run, so "still fails" is exact, not
probabilistic. The minimal plan serializes to JSON and replays forever:
``repro chaos replay --plan minimal.json`` reproduces the verdict
bit-for-bit, which is what makes it a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .plan import ChaosPlan, FaultEvent

__all__ = ["ShrinkResult", "shrink_plan", "shrink_failing_seed"]


@dataclass
class ShrinkResult:
    plan: ChaosPlan           # the minimal still-failing plan
    runs: int                 # predicate evaluations spent
    removed_events: int       # events dropped from the original
    exhausted: bool           # True if the run budget cut shrinking short


class _Budget:
    def __init__(self, max_runs: int):
        self.max_runs = max_runs
        self.runs = 0
        self.exhausted = False
        self._cache: dict = {}

    def fails(self, plan: ChaosPlan, predicate) -> bool:
        key = plan.to_json()
        if key in self._cache:
            return self._cache[key]
        if self.runs >= self.max_runs:
            self.exhausted = True
            return False  # out of budget: treat as "passes", keep current
        self.runs += 1
        result = bool(predicate(plan))
        self._cache[key] = result
        return result


def _ddmin(plan: ChaosPlan, predicate, budget: _Budget) -> ChaosPlan:
    events = list(plan.events)
    n = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // n)
        reduced = False
        for i in range(n):
            lo = i * chunk
            hi = len(events) if i == n - 1 else min(len(events), lo + chunk)
            if lo >= hi:
                continue
            complement = events[:lo] + events[hi:]
            if not complement:
                continue
            if budget.fails(plan.replace(complement), predicate):
                events = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(events) or budget.exhausted:
                break
            n = min(len(events), n * 2)
    return plan.replace(events)


def _attribute_candidates(event: FaultEvent):
    """Smaller variants of one event, most aggressive first."""
    if event.duration > 1.0:
        yield FaultEvent(event.kind, event.target, event.start,
                         round(max(1.0, event.duration / 2), 3), event.params)
    for key in sorted(event.params):
        value = event.params[key]
        if isinstance(value, float) and value > 0.01:
            zeroed = dict(event.params)
            zeroed[key] = 0.0
            yield FaultEvent(event.kind, event.target, event.start,
                             event.duration, zeroed)
            smaller = dict(event.params)
            smaller[key] = round(value / 2, 3)
            yield FaultEvent(event.kind, event.target, event.start,
                             event.duration, smaller)


def _shrink_attributes(plan: ChaosPlan, predicate, budget: _Budget) -> ChaosPlan:
    # Fixed-point loop: every accepted candidate strictly halves a duration
    # (floored at 1.0) or halves/zeroes a parameter, so this terminates
    # without an artificial round cap; the run budget bounds it anyway.
    events = list(plan.events)
    changed = True
    while changed and not budget.exhausted:
        changed = False
        for index in range(len(events)):
            for candidate in _attribute_candidates(events[index]):
                trial = events[:index] + [candidate] + events[index + 1:]
                if budget.fails(plan.replace(trial), predicate):
                    events = trial
                    changed = True
                    break
    return plan.replace(events)


def shrink_plan(plan: ChaosPlan, predicate: Callable,
                max_runs: int = 200) -> ShrinkResult:
    """Minimize ``plan`` while ``predicate(plan)`` stays True.

    ``predicate`` must be deterministic (it re-runs the campaign). The
    original plan is assumed failing; it is returned unshrunk if no
    smaller variant still fails within the run budget.
    """
    budget = _Budget(max_runs)
    shrunk = _ddmin(plan, predicate, budget)
    shrunk = _shrink_attributes(shrunk, predicate, budget)
    return ShrinkResult(plan=shrunk, runs=budget.runs,
                        removed_events=len(plan.events) - len(shrunk.events),
                        exhausted=budget.exhausted)


def _matches_failure(trial: dict, failed_names: set) -> bool:
    return any(not result["ok"] and result["name"] in failed_names
               for result in trial["invariants"])


def shrink_failing_seed(runner, seed: int, max_runs: int = 60) -> tuple:
    """Run ``seed`` under ``runner``; if it fails, shrink its plan.

    Returns ``(ShrinkResult | None, original_verdict)`` — ``None`` when
    the seed passes and there is nothing to shrink. The shrink predicate
    demands the *same* invariant(s) keep failing, so the minimal plan
    reproduces the original violation class, not just any failure.
    Every probe is a full
    :meth:`~repro.chaos.campaign.CampaignRunner.run_plan`, so a probe's
    verdict is the verdict ``repro chaos replay`` gives.
    """
    verdict = runner.run_seed(seed)
    if verdict["ok"]:
        return None, verdict
    failed_names = {result["name"] for result in verdict["invariants"]
                    if not result["ok"]}

    def fails(candidate: ChaosPlan) -> bool:
        return _matches_failure(runner.run_plan(candidate), failed_names)

    plan = ChaosPlan.from_dict(verdict["plan"])
    return shrink_plan(plan, fails, max_runs=max_runs), verdict
