"""Unit tests for the metrics registry."""

import pytest

from repro.observability import render_metrics
from repro.observability import Histogram, MetricsRegistry, metrics_registry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_semantics(registry):
    c = registry.counter("rpc.calls", host="h1")
    c.inc()
    c.inc(2.0)
    assert c.value == 3.0
    with pytest.raises(ValueError):
        c.inc(-1.0)
    # Same name + labels: the same instrument.
    assert registry.counter("rpc.calls", host="h1") is c
    assert registry.counter("rpc.calls", host="h2") is not c


def test_gauge_tracks_high_water_mark(registry):
    g = registry.gauge("queue.depth")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2.0
    assert g.max_value == 4.0
    assert g.snapshot() == {"value": 2.0, "max": 4.0}


def test_histogram_buckets_and_quantiles(registry):
    h = registry.histogram("latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.counts == [1, 2, 1, 1]  # last slot is +inf
    assert h.mean == pytest.approx(1.121)
    empty = registry.histogram("empty")
    assert empty.mean is None and empty.quantile_interpolated(0.5) is None


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(1.0, 0.5))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_type_conflicts_are_errors(registry):
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_value_reads_without_creating(registry):
    assert registry.value("never.seen") == 0.0
    assert len(registry) == 0  # the read did not register anything
    registry.counter("c").inc(4)
    assert registry.value("c") == 4.0
    h = registry.histogram("h")
    h.observe(0.1)
    assert registry.value("h") == 1.0  # histograms read as their count


def test_snapshot_is_sorted_and_complete(registry):
    registry.counter("b.count").inc()
    registry.gauge("a.depth").set(2)
    registry.histogram("c.lat", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert list(snap) == ["a.depth", "b.count", "c.lat"]
    assert snap["b.count"] == {"type": "counter", "data": 1.0}
    assert snap["c.lat"]["data"]["counts"] == [1, 0]
    assert registry.names(prefix="a") == ["a.depth"]


def test_render_metrics_table(registry):
    registry.counter("rpc.calls", host="h1").inc(3)
    registry.gauge("depth").set(2)
    registry.histogram("lat").observe(0.004)
    text = render_metrics(registry.snapshot())
    assert "Metrics" in text
    assert "rpc.calls{host=h1}" in text
    assert "3" in text and "depth" in text and "lat" in text


def test_metrics_registry_is_a_per_network_singleton():
    class FakeNetwork:
        shared = {}

    net = FakeNetwork()
    assert metrics_registry(net) is metrics_registry(net)
