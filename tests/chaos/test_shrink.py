"""Shrinking: ddmin over events, attribute narrowing, and an end-to-end
shrink of a real failing campaign down to a minimal replayable plan."""

from repro.chaos import (
    CampaignConfig,
    CampaignRunner,
    ChaosPlan,
    FaultEvent,
    shrink_failing_seed,
    shrink_plan,
)
from repro.chaos.invariants import Invariant


def plan_with(kinds):
    events = [FaultEvent(kind, f"t{i}", 10.0 + i, 2.0)
              for i, kind in enumerate(kinds)]
    return ChaosPlan(seed=0, scenario="unit", events=events, horizon=60.0)


def test_ddmin_isolates_single_culprit():
    plan = plan_with(["crash", "partition", "lease_churn", "txn_abort",
                      "slowdown", "partition"])
    runs = []

    def fails(candidate):
        runs.append(candidate)
        return any(e.kind == "lease_churn" for e in candidate.events)

    result = shrink_plan(plan, fails)
    assert [e.kind for e in result.plan.events] == ["lease_churn"]
    assert result.removed_events == 5
    assert not result.exhausted
    assert result.runs == len(set(p.to_json() for p in runs))


def test_ddmin_keeps_interacting_pair():
    plan = plan_with(["crash", "partition", "lease_churn", "slowdown"])

    def fails(candidate):
        kinds = {e.kind for e in candidate.events}
        return {"crash", "slowdown"} <= kinds

    result = shrink_plan(plan, fails)
    assert sorted(e.kind for e in result.plan.events) == ["crash", "slowdown"]


def test_attribute_shrinking_narrows_duration_and_params():
    plan = ChaosPlan(seed=0, scenario="unit", horizon=60.0, events=[
        FaultEvent("link_chaos", "a|b", 10.0, 8.0,
                   {"drop_rate": 0.2, "dup_rate": 0.16})])

    def fails(candidate):
        event = candidate.events[0]
        return event.params["drop_rate"] >= 0.05

    result = shrink_plan(plan, fails)
    event = result.plan.events[0]
    assert event.duration == 1.0                  # halved to the floor
    assert 0.05 <= event.params["drop_rate"] < 0.2
    assert event.params["dup_rate"] == 0.0        # irrelevant knob zeroed


def test_budget_exhaustion_returns_best_so_far():
    plan = plan_with(["crash"] * 8)

    def fails(candidate):
        return sum(e.kind == "crash" for e in candidate.events) >= 2

    result = shrink_plan(plan, fails, max_runs=3)
    assert result.exhausted
    assert len(result.plan.events) >= 2   # not fully minimized, still failing


class CrashForbidden(Invariant):
    """A deliberately-broken oracle: any applied crash is a violation.

    Stands in for a buggy build — it makes seeds whose plans contain a
    crash fail, so the shrinker has something real to minimize through
    full campaign re-runs.
    """

    name = "no-crash"

    def violations(self, record):
        return [f"crash on {event.target}"
                for event in record.plan.events if event.kind == "crash"]


def test_end_to_end_shrink_produces_minimal_replayable_plan():
    # Seed 12's plan is crash + slowdown + link_chaos + partition_asym;
    # under the broken oracle only the crash matters.
    runner = CampaignRunner("paper-lab", invariants=[CrashForbidden()])
    result, verdict = shrink_failing_seed(runner, 12, max_runs=30)
    assert not verdict["ok"]
    assert result is not None
    assert len(result.plan.events) <= 3
    assert [e.kind for e in result.plan.events] == ["crash"]
    # The minimal plan replays to the same verdict class, bit-for-bit.
    replay = runner.run_plan(ChaosPlan.from_json(result.plan.to_json()))
    assert not replay["ok"]
    assert [r["name"] for r in replay["invariants"] if not r["ok"]] == [
        "no-crash"]
    again = runner.run_plan(ChaosPlan.from_json(result.plan.to_json()))
    import json
    assert (json.dumps(replay, sort_keys=True)
            == json.dumps(again, sort_keys=True))


def test_passing_seed_returns_none():
    runner = CampaignRunner("paper-lab")
    result, verdict = shrink_failing_seed(runner, 3, max_runs=5)
    assert result is None
    assert verdict["ok"]


#: Seed 5 at a 45 s horizon fails health-convergence: the campaign ends
#: before the partition's recovery window closes. Of its five events the
#: partition alone is the cause.
SEED_5_MINIMUM = ('{"events":[{"duration":10.708,"kind":"partition",'
                  '"start":13.917,"target":"composite-host|facade-host"}],'
                  '"horizon":45.0,"scenario":"paper-lab","seed":5}\n')


def test_seed_5_shrinks_to_one_partition_in_four_runs():
    runner = CampaignRunner("paper-lab", config=CampaignConfig(horizon=45.0))
    result, verdict = shrink_failing_seed(runner, 5)
    assert [r["name"] for r in verdict["invariants"] if not r["ok"]] == [
        "health-convergence"]
    assert len(verdict["plan"]["events"]) == 5
    assert result.plan.to_json() == SEED_5_MINIMUM
    assert result.runs == 4
    assert result.exhausted is False
