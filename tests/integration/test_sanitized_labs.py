"""The race sanitizer, pointed at the labs it was written for.

``Environment(sanitize=...)`` used to be built only by toy tests. Here the
scenario builders' ``Environment`` is swapped (pytest ``monkeypatch``, no
knob in ``src``) for one that records violations, and the paper lab, the
chaos campaign on it and a CSP tree must all come out clean: no two
same-instant events may touch the same instrumented state in an order the
tie-break could flip.
"""

import pytest

from repro.chaos import CampaignRunner
from repro.core import SENSOR_DATA_ACCESSOR
from repro.net import Host
from repro.scenarios import build_paper_lab, build_sensorcer_grid
from repro.sim import Environment
from repro.sorcer import Exerter, Signature


@pytest.fixture
def sanitized(monkeypatch):
    """Every ``Environment`` the scenario builders create from here on
    records sanitizer violations; yields the list of those environments."""
    built = []

    def recording_environment():
        built.append(Environment(sanitize="record"))
        return built[-1]

    monkeypatch.setattr("repro.scenarios.paper_lab.Environment",
                        recording_environment)
    monkeypatch.setattr("repro.scenarios.grids.Environment",
                        recording_environment)
    return built


def _violations(built):
    assert built, "the builder did not go through the patched Environment"
    return [str(v) for env in built for v in env.sanitizer.violations]


def test_six_step_experiment_is_race_free(sanitized):
    lab = build_paper_lab(seed=2009)
    lab.settle(6.0)
    lab.run_six_steps()
    lab.env.run(until=30.0)
    assert _violations(sanitized) == []


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_chaos_campaign_is_race_free(sanitized, seed):
    verdict = CampaignRunner("paper-lab").run_seed(seed)
    assert verdict["ok"], verdict
    assert _violations(sanitized) == []


@pytest.mark.parametrize("fixed_latency", [0.001, None],
                         ids=["fixed-latency", "lan-latency"])
def test_tree_reads_are_race_free(sanitized, fixed_latency):
    grid = build_sensorcer_grid(64, seed=11, tree_fanout=4,
                                fixed_latency=fixed_latency)
    grid.settle(6.0)
    exerter = Exerter(Host(grid.net, "requestor"))
    root = Signature(SENSOR_DATA_ACCESSOR, "getValue",
                     service_id=grid.root.service_id)

    def reads():
        for index in range(3):
            value = yield from exerter.call(root, {}, name=f"read-{index}",
                                            context="sanitized-read")
            assert abs(value - grid.ground_truth_mean()) < 1.0

    grid.env.run(until=grid.env.process(reads()))
    assert _violations(sanitized) == []
