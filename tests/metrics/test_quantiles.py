"""Shared bucket-quantile estimator (used by Histogram, tables, health)."""

import pytest

from repro.observability.quantiles import (max_from_buckets,
                                           quantile_from_buckets)
from repro.observability import Histogram


BOUNDS = (1.0, 2.0, 4.0, 8.0)


def test_empty_histogram_has_no_quantiles():
    assert quantile_from_buckets(BOUNDS, [0, 0, 0, 0, 0], 0.5) is None
    assert max_from_buckets(BOUNDS, [0, 0, 0, 0, 0]) is None


def test_quantile_range_validated():
    with pytest.raises(ValueError):
        quantile_from_buckets(BOUNDS, [1, 0, 0, 0, 0], 1.5)
    with pytest.raises(ValueError):
        quantile_from_buckets(BOUNDS, [1, 0, 0, 0, 0], -0.1)


def test_interpolation_inside_one_bucket():
    # 10 samples, all in the (2, 4] bucket: ranks spread linearly across it.
    counts = [0, 0, 10, 0, 0]
    assert quantile_from_buckets(BOUNDS, counts, 0.5) == pytest.approx(3.0)
    assert quantile_from_buckets(BOUNDS, counts, 0.1) == pytest.approx(2.2)
    assert quantile_from_buckets(BOUNDS, counts, 1.0) == pytest.approx(4.0)


def test_first_bucket_interpolates_from_zero():
    counts = [4, 0, 0, 0, 0]
    assert quantile_from_buckets(BOUNDS, counts, 0.5) == pytest.approx(0.5)


def test_inf_bucket_is_clamped_when_interpolating():
    counts = [0, 0, 0, 0, 3]
    assert quantile_from_buckets(BOUNDS, counts, 0.5) == 8.0


def test_max_from_buckets_highest_occupied_bound():
    assert max_from_buckets(BOUNDS, [1, 3, 2, 0, 0]) == 4.0
    assert max_from_buckets(BOUNDS, [1, 0, 0, 0, 2]) == float("inf")


def test_histogram_interpolated_quantile_and_max():
    h = Histogram("t", buckets=BOUNDS)
    for value in (0.5, 1.5, 2.5, 3.0, 3.5):
        h.observe(value)
    # 3 of 5 samples in (2, 4]: p50 rank 2.5 sits 0.5/3 into that bucket.
    assert h.quantile_interpolated(0.5) == pytest.approx(2.0 + 2.0 * 0.5 / 3)
    assert h.max_bound == 4.0
    assert Histogram("e", buckets=BOUNDS).max_bound is None


def test_registry_quantile_reader_does_not_create():
    from repro.observability import MetricsRegistry
    registry = MetricsRegistry()
    assert registry.quantile("nope", 0.95) is None
    assert len(registry) == 0
    h = registry.histogram("lat", buckets=BOUNDS)
    h.observe(3.0)
    assert registry.quantile("lat", 1.0) == pytest.approx(4.0)
    registry.counter("c").inc()
    assert registry.quantile("c", 0.5) is None  # not a histogram
