"""Campaign runs: verdict determinism (including under tie-break
shuffling), the pytest harness, and recovery accounting."""

import pytest

from repro.chaos import CampaignRunner, mttr_from_transitions
from repro.chaos.testing import chaos_campaign
from repro.util.canonical import canonical_document


def test_verdict_is_byte_identical_across_runs():
    a = CampaignRunner("paper-lab").run_seed(3)
    b = CampaignRunner("paper-lab").run_seed(3)
    assert canonical_document(a) == canonical_document(b)


#: Campaign seeds whose verdicts must not depend on tie-break order.
SHUFFLED_CAMPAIGN_SEEDS = (1, 2, 3, 4, 5)


def test_verdict_is_shuffle_invariant(shuffle_seed):
    """The whole campaign pipeline — plan, injection, invariants, recovery
    accounting — must not depend on same-timestamp tie-break order."""
    moved = [seed for seed in SHUFFLED_CAMPAIGN_SEEDS
             if canonical_document(CampaignRunner("paper-lab").run_seed(seed))
             != _baseline(seed)]
    assert moved == [], f"campaign seeds whose verdict moved: {moved}"


_baselines = {}


def _baseline(campaign_seed):
    """The unshuffled verdict of ``campaign_seed``, computed once."""
    if campaign_seed not in _baselines:
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_SHUFFLE_SEED", raising=False)
            _baselines[campaign_seed] = canonical_document(
                CampaignRunner("paper-lab").run_seed(campaign_seed))
    return _baselines[campaign_seed]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        CampaignRunner("no-such-lab")


def test_verdict_shape():
    verdict = CampaignRunner("paper-lab").run_seed(5)
    assert set(verdict) == {"seed", "scenario", "ok", "plan", "invariants",
                            "workload", "faults", "recovery"}
    assert verdict["seed"] == 5
    assert verdict["workload"]["issued"] > 0
    counts = verdict["workload"]
    assert counts["issued"] == counts["completed"] + counts["failed"]
    assert set(verdict["recovery"]) == {"incidents", "recovered",
                                        "unrecovered", "mttr"}


@chaos_campaign(seeds=[1, 4])
def test_invariants_hold_via_harness(verdict):
    assert verdict["ok"], [r for r in verdict["invariants"] if not r["ok"]]


def test_mttr_accounting():
    transitions = [
        {"t": 10.0, "entity": "a", "from": "UP", "to": "DOWN"},
        {"t": 12.0, "entity": "a", "from": "DOWN", "to": "DEGRADED"},
        {"t": 16.0, "entity": "a", "from": "DEGRADED", "to": "UP"},
        {"t": 20.0, "entity": "b", "from": "UP", "to": "DEGRADED"},
    ]
    out = mttr_from_transitions(transitions)
    assert out == {"incidents": 2, "recovered": 1, "unrecovered": 1,
                   "mttr": 6.0}


def test_mttr_empty():
    assert mttr_from_transitions([]) == {
        "incidents": 0, "recovered": 0, "unrecovered": 0, "mttr": None}


# -- paper-lab-load: overload under chaos --------------------------------------


def test_load_scenario_verdict_carries_traffic_accounting():
    verdict = CampaignRunner("paper-lab-load").run_seed(1)
    assert set(verdict) == {"seed", "scenario", "ok", "plan", "invariants",
                            "workload", "faults", "recovery", "load"}
    load = verdict["load"]
    total = load["total"]
    assert total["offered"] > 0
    assert total["offered"] == (total["completed"] + total["rejected"]
                                + total["failed"])
    assert load["inflight"] == 0
    assert any(r["name"] == "overload-graceful"
               for r in verdict["invariants"])


def test_load_scenario_verdict_byte_identical_across_runs():
    a = CampaignRunner("paper-lab-load").run_seed(2)
    b = CampaignRunner("paper-lab-load").run_seed(2)
    assert canonical_document(a) == canonical_document(b)


@chaos_campaign(seeds=[1, 2, 3], scenario="paper-lab-load")
def test_overload_invariants_hold_under_chaos(verdict):
    assert verdict["ok"], [r for r in verdict["invariants"] if not r["ok"]]
