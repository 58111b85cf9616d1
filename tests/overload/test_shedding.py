"""Shed load is not failure: end-to-end through the protected lab.

A saturated facade must reject with a typed ``Overloaded`` that (a)
reaches the caller with the retry-after hint intact, (b) leaves every
circuit breaker closed — a busy provider is not a dead one — and (c)
never shows up in the failure-rate metrics the health model and breakers
feed on (shedding the excess must not mark the federation DEGRADED).
"""

import pytest

from repro.observability import metrics_registry
from repro.overload import AdmissionController, Overloaded
from repro.resilience.breaker import BreakerState
from repro.scenarios import build_paper_lab


@pytest.fixture
def choked_lab():
    """The paper lab with a one-slot, no-queue facade: any concurrency
    above 1 is shed at the door."""
    lab = build_paper_lab(seed=2009)
    registry = metrics_registry(lab.net)
    lab.facade.admission = AdmissionController(
        lab.env, lab.facade.name, registry, max_inflight=1, max_queue=0)
    lab.settle(6.0)
    return lab


def saturate(lab, fanout=4):
    """Issue ``fanout`` same-instant reads; return (values, sheds)."""
    values, sheds = [], []

    def one(name):
        try:
            value = yield from lab.browser.get_value("Neem-Sensor")
        except Overloaded as exc:
            sheds.append(exc)
            return
        values.append((name, value))

    def burst():
        procs = [lab.env.process(one(f"r{i}"), name=f"burst:{i}")
                 for i in range(fanout)]
        yield lab.env.all_of(procs)

    lab.env.run(until=lab.env.process(burst()))
    return values, sheds


def test_saturated_facade_sheds_typed_overloaded(choked_lab):
    values, sheds = saturate(choked_lab)
    assert len(values) == 1 and len(sheds) == 3
    for exc in sheds:
        assert exc.reason == "queue-full"
        assert exc.provider == choked_lab.facade.name
        assert exc.retry_after > 0, "queue-full must carry a backoff hint"


def test_shed_load_leaves_breakers_closed(choked_lab):
    _, sheds = saturate(choked_lab)
    assert sheds
    breakers = choked_lab.browser.exerter.breakers
    assert all(state == "closed" for state in breakers.snapshot().values())
    assert breakers.state_of(choked_lab.facade.name) is BreakerState.CLOSED


def test_shed_load_stays_out_of_failure_metrics(choked_lab):
    lab = choked_lab
    _, sheds = saturate(lab)
    assert sheds
    snap = metrics_registry(lab.net).snapshot()
    for name, entry in snap.items():
        if name.startswith(("provider.failed", "exertion.failures")):
            assert entry["data"] == 0, f"shed load counted in {name}"
    facade_label = f"provider={lab.facade.name}"
    assert snap[f"overload.rejected{{{facade_label},reason=queue-full}}"][
        "data"] == 3
    assert snap[f"provider.failed{{{facade_label}}}"]["data"] == 0


def test_shed_load_does_not_degrade_provider_health(choked_lab):
    lab = choked_lab
    saturate(lab)
    lab.env.run(until=lab.env.now + 20.0)
    snapshot = lab.health.snapshot()
    federation = snapshot["federation"]["status"]
    assert federation == "UP", (
        "shedding excess load must not mark the federation down: "
        f"{federation}")
