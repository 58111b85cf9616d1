"""Warm-restore shrinking: forked probes must agree with cold re-runs.

Seed 5 at a 45s horizon violates health-convergence (the campaign ends
before the last fault's recovery window closes), giving a real failing
plan to shrink both ways. The warm minimum is always cold-validated, so
``mode == "warm"`` certifies the forked probes told the truth.
"""

import pytest

from repro.chaos import (
    CampaignConfig,
    CampaignRunner,
    ChaosPlan,
    FaultEvent,
    WarmSession,
    shrink_failing_seed,
)

pytestmark = pytest.mark.skipif(not WarmSession.supported(),
                                reason="warm restore needs os.fork")

HORIZON = 45.0
FAILING_SEED = 5


def _runner():
    return CampaignRunner(scenario="paper-lab",
                          config=CampaignConfig(horizon=HORIZON))


def test_warm_and_cold_find_the_same_minimum(monkeypatch):
    # Probes are warm wherever the platform can fork; a platform that
    # cannot takes the cold path, and both must land on the same plan.
    warm, verdict_warm = shrink_failing_seed(_runner(), FAILING_SEED,
                                             max_runs=30)
    monkeypatch.setattr(WarmSession, "supported", staticmethod(lambda: False))
    cold, verdict_cold = shrink_failing_seed(_runner(), FAILING_SEED,
                                             max_runs=30)
    assert cold is not None and warm is not None
    assert not verdict_cold["ok"] and not verdict_warm["ok"]
    assert cold.mode == "cold"
    assert warm.mode in ("warm", "warm-fallback")
    assert warm.plan.to_json() == cold.plan.to_json()


def test_warm_probe_verdict_matches_cold():
    runner = _runner()
    verdict = runner.run_seed(FAILING_SEED)
    assert not verdict["ok"]
    plan = ChaosPlan.from_dict(verdict["plan"])
    session = runner.warm_session(plan)
    probed = session.run_plan(plan)
    cold = _runner().run_plan(plan)
    assert probed["ok"] == cold["ok"]
    assert ([r["name"] for r in probed["invariants"] if not r["ok"]]
            == [r["name"] for r in cold["invariants"] if not r["ok"]])


def test_candidate_before_fork_point_rejected():
    runner = _runner()
    plan = ChaosPlan(seed=0, scenario="paper-lab", horizon=HORIZON, events=[
        FaultEvent("slowdown", "facade-host", 30.0, 5.0)])
    session = runner.warm_session(plan)
    early = plan.replace([FaultEvent("slowdown", "facade-host", 10.0, 5.0)])
    with pytest.raises(ValueError, match="predates the warm prefix"):
        session.run_plan(early)


def test_empty_plan_has_no_warm_prefix():
    runner = _runner()
    with pytest.raises(ValueError):
        runner.warm_session(ChaosPlan(seed=0, scenario="paper-lab",
                                      horizon=HORIZON, events=[]))
