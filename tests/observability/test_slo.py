"""SLO rules and the alert engine: thresholds, hysteresis, determinism."""

import pytest

from repro.observability import MetricsRegistry, Slo, SloEngine, TimeSeriesStore


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def store(registry):
    return TimeSeriesStore(registry)


@pytest.fixture
def engine(store):
    return SloEngine(store)


def tick(registry, store, engine, now, failures=0):
    registry.counter("exertion.failures", host="a").inc(failures)
    store.collect(now)
    return engine.evaluate(now)


def test_slo_validates_fields():
    with pytest.raises(ValueError):
        Slo("bad", "m", 1.0, kind="p99")
    with pytest.raises(ValueError):
        Slo("bad", "m", 1.0, for_windows=0)


def test_missing_series_is_not_a_breach(store):
    slo = Slo("quiet", "never.observed", 0.0)
    assert slo.signal(store) == 0.0  # rate of absent counter
    value_slo = Slo("gauge", "never.observed", 0.0, kind="value")
    assert value_slo.signal(store) is None
    assert not value_slo.breached(value_slo.signal(store))


def test_engine_rejects_duplicate_names(engine):
    engine.add(Slo("dup", "m", 1.0))
    with pytest.raises(ValueError):
        engine.add(Slo("dup", "m", 2.0))


def test_alert_fires_after_for_windows_and_resolves_after_clear(
        registry, store, engine):
    engine.add(Slo("failures", "exertion.failures{host=a}", 1.0,
                   window=1, for_windows=2))
    assert tick(registry, store, engine, 1.0, failures=5) == []  # 1st breach
    alerts = tick(registry, store, engine, 2.0, failures=5)      # 2nd: fires
    assert [a.state for a in alerts] == ["firing"]
    assert alerts[0].t == 2.0 and alerts[0].signal == 5.0
    assert engine.firing() == ["failures"]
    assert tick(registry, store, engine, 3.0) == []              # 1st clear
    alerts = tick(registry, store, engine, 4.0)                  # 2nd: resolves
    assert [a.state for a in alerts] == ["resolved"]
    assert engine.firing() == []


def test_hysteresis_stops_flapping(registry, store, engine):
    engine.add(Slo("flappy", "exertion.failures{host=a}", 1.0,
                   window=1, for_windows=2))
    # Signal oscillates above/below threshold every window: the breach
    # streak never reaches 2, so no alert at all.
    for step in range(10):
        tick(registry, store, engine, float(step + 1),
             failures=5 if step % 2 == 0 else 0)
    assert engine.alerts == []


def test_listeners_hear_every_edge(registry, store, engine):
    heard = []
    engine.subscribe(heard.append)
    engine.add(Slo("failures", "exertion.failures{host=a}", 1.0,
                   window=1, for_windows=1))
    tick(registry, store, engine, 1.0, failures=5)
    tick(registry, store, engine, 2.0)
    assert len(heard) == 1  # one healthy window is not enough to resolve
    tick(registry, store, engine, 3.0)
    assert [(a.slo, a.state) for a in heard] == [
        ("failures", "firing"), ("failures", "resolved")]


def test_snapshot_is_sorted_and_plain(registry, store, engine):
    engine.add(Slo("zeta", "exertion.failures{host=a}", 1.0, window=1,
                   for_windows=1))
    engine.add(Slo("alpha", "other", 2.0))
    tick(registry, store, engine, 1.0, failures=9)
    snap = engine.snapshot()
    assert [rule["name"] for rule in snap["slos"]] == ["alpha", "zeta"]
    zeta = snap["slos"][1]
    assert zeta["state"] == "firing" and zeta["signal"] == 9.0
    assert snap["alerts"][0]["state"] == "firing"


def test_sum_prefix_collapses_hosts(registry, store, engine):
    engine.add(Slo("total", "exertion.failures", 1.0,
                   window=1, for_windows=1))
    registry.counter("exertion.failures", host="a").inc(1)
    registry.counter("exertion.failures", host="b").inc(1)
    store.collect(1.0)
    alerts = engine.evaluate(1.0)
    assert alerts and alerts[0].signal == 2.0
