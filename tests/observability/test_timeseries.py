"""TimeSeriesStore: windowed rollups of the metrics registry."""

import pytest

from repro.observability import MetricsRegistry, TimeSeriesStore


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def store(registry):
    return TimeSeriesStore(registry)


def test_counter_windows_record_deltas_and_rates(registry, store):
    calls = registry.counter("rpc.calls", host="a")
    calls.inc(10)
    store.collect(1.0)
    calls.inc(4)
    store.collect(2.0)
    store.collect(3.0)  # idle window: appends nothing (sparse ring)
    series = store.series("rpc.calls{host=a}")
    assert [w.delta for w in series] == [10.0, 4.0]
    assert [w.rate for w in series] == [10.0, 4.0]
    # The readers reconstruct the implied zero window from the horizon.
    assert store.rate("rpc.calls{host=a}", 1) == 0.0
    assert store.rate("rpc.calls{host=a}", windows=3) == pytest.approx(14 / 3)


def test_gauge_windows_record_value_and_high_water(registry, store):
    depth = registry.gauge("queue.depth")
    depth.set(3)
    store.collect(1.0)
    depth.set(7)
    depth.set(2)
    store.collect(2.0)
    series = store.series("queue.depth")
    assert [w.value for w in series] == [3.0, 2.0]
    assert series[-1].max == 7.0  # high-water survives the dip
    assert store.value("queue.depth") == 2.0
    assert store.value("unknown") is None


def test_histogram_windows_use_window_deltas_not_cumulative(registry, store):
    lat = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 0.5, 0.5):
        lat.observe(v)
    store.collect(1.0)
    for v in (3.0, 3.0, 3.0):  # second window is all-slow
        lat.observe(v)
    store.collect(2.0)
    first, second = store.series("lat")
    assert first.count == 3 and second.count == 3
    assert first.p95 <= 1.0
    # Cumulative p95 would be dragged down by the three fast samples;
    # the window rollup must see only the slow ones.
    assert second.p50 > 2.0
    assert second.max == 4.0


def test_retention_ring_is_bounded(registry, store):
    counter = registry.counter("c")
    for tick in range(TimeSeriesStore.RETENTION + 5):
        counter.inc()
        store.collect(float(tick))
    series = store.series("c")
    assert len(series) == TimeSeriesStore.RETENTION
    assert series[0].t == 5.0  # oldest windows fell off


def test_sum_rate_collapses_labels(registry, store):
    registry.counter("exertion.failures", host="a").inc(2)
    registry.counter("exertion.failures", host="b").inc(4)
    registry.counter("exertion.retries", host="a").inc(100)
    store.collect(1.0)
    assert store.sum_rate("exertion.failures", 1) == 6.0


def test_snapshot_is_sorted_and_plain(registry, store):
    registry.counter("b").inc()
    registry.gauge("a").set(1)
    store.collect(1.0)
    snap = store.snapshot()
    assert list(snap) == ["a", "b"]
    assert snap["b"] == [{"t": 1.0, "kind": "counter", "delta": 1.0,
                          "rate": 1.0}]


def test_metrics_created_after_first_collect_join_later(registry, store):
    registry.counter("early").inc()
    store.collect(1.0)
    registry.counter("late").inc(5)
    store.collect(2.0)
    # "early" was idle over the second window: sparse ring, one window.
    assert len(store.series("early")) == 1
    assert store.rate("early", 1) == 0.0  # ...but the horizon reads as zero
    late = store.series("late")
    assert len(late) == 1 and late[0].delta == 5.0
