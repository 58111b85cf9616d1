"""Open-loop engine: seeded determinism, substream isolation, burst
composition and drained accounting."""

import pytest

from repro.load import DEFAULT_TENANTS, TenantSpec, build_load_lab
from repro.scenarios.paper_lab import SENSOR_NAMES
from repro.util.canonical import canonical_json as canonical


def run_summary(seed=2009, **kwargs):
    kwargs.setdefault("duration", 2.0)
    return build_load_lab(seed=seed, **kwargs).run()


def test_same_seed_same_summary_bytes():
    assert canonical(run_summary()) == canonical(run_summary())


def test_different_seed_different_arrivals():
    first = run_summary(seed=1)
    second = run_summary(seed=2)
    assert first["total"]["offered"] != second["total"]["offered"] or \
        canonical(first) != canonical(second)


def test_summary_byte_identical_across_shuffle_seeds(monkeypatch):
    from repro.sim.core import SHUFFLE_SEED_ENV
    blobs = set()
    for shuffle_seed in (11, 23, 47):
        monkeypatch.setenv(SHUFFLE_SEED_ENV, str(shuffle_seed))
        blobs.add(canonical(run_summary(scale=1.5)))
    assert len(blobs) == 1, "load summary depends on tie-break order"


def test_tenant_substreams_are_isolated():
    """Changing one tenant's rate must not move another's arrivals."""
    base = (TenantSpec("a", rate=10.0, targets=SENSOR_NAMES),
            TenantSpec("b", rate=10.0, targets=SENSOR_NAMES))
    bumped = (TenantSpec("a", rate=30.0, targets=SENSOR_NAMES),
              TenantSpec("b", rate=10.0, targets=SENSOR_NAMES))
    first = run_summary(tenants=base)
    second = run_summary(tenants=bumped)
    assert second["tenants"]["b"]["offered"] == \
        first["tenants"]["b"]["offered"]
    assert second["tenants"]["a"]["offered"] > \
        first["tenants"]["a"]["offered"]


def test_drained_accounting_balances():
    summary = run_summary(scale=3.0)  # firmly past the knee
    total = summary["total"]
    assert summary["inflight"] == 0
    assert total["offered"] == (total["completed"] + total["rejected"]
                                + total["failed"])
    assert total["rejected"] > 0, "scale 3 should saturate the lab"
    assert total["failed"] == 0, "overload must shed typed, not fail"


def test_trace_driven_arrivals_replace_poisson():
    # Trace times are absolute sim times; the lab settles to t=6 first.
    trace = {spec.name: [] for spec in DEFAULT_TENANTS}
    trace["gold"] = [6.1, 6.2, 6.3, 11.0]  # 11.0 is past t=6+duration
    load_lab = build_load_lab(seed=7, duration=2.0, trace=trace)
    summary = load_lab.run()
    assert summary["tenants"]["gold"]["offered"] == 3
    assert summary["tenants"]["silver"]["offered"] == 0
    assert summary["tenants"]["bronze"]["offered"] == 0


def test_burst_multiplies_offered_rate():
    lab_quiet = build_load_lab(seed=5, duration=2.0)
    quiet = lab_quiet.run()

    lab_burst = build_load_lab(seed=5, duration=2.0)
    lab_burst.engine.burst("gold", factor=4.0,
                           until=lab_burst.env.now + 2.0)
    burst = lab_burst.run()
    assert burst["tenants"]["gold"]["offered"] > \
        2 * quiet["tenants"]["gold"]["offered"]
    # Substream isolation holds under bursts too.
    assert burst["tenants"]["bronze"]["offered"] == \
        quiet["tenants"]["bronze"]["offered"]


def test_overlapping_bursts_compose_by_worst_case():
    load_lab = build_load_lab(seed=5, duration=2.0)
    engine = load_lab.engine
    now = load_lab.env.now
    engine.burst("gold", factor=2.0, until=now + 10.0)
    engine.burst("gold", factor=6.0, until=now + 5.0)
    assert engine.burst_factor("gold") == 6.0
    assert engine._bursts["gold"] == (6.0, now + 10.0)


def test_burst_expires_on_the_clock():
    load_lab = build_load_lab(seed=5, duration=2.0)
    engine = load_lab.engine
    engine.burst("gold", factor=5.0, until=load_lab.env.now + 1.0)
    assert engine.burst_factor("gold") == 5.0
    load_lab.env.run(until=load_lab.env.now + 1.5)
    assert engine.burst_factor("gold") == 1.0


def test_engine_requires_tenants():
    from repro.load import OpenLoopEngine
    load_lab = build_load_lab(seed=5, duration=1.0)
    with pytest.raises(ValueError):
        OpenLoopEngine(load_lab.engine.host, ())
