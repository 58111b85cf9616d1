"""Token buckets refill lazily on the sim clock; the registry meters
known tenants and (optionally) mints default buckets for new ones."""

import pytest

from repro.overload import QuotaRegistry, TokenBucket


def test_bucket_starts_full_and_drains():
    bucket = TokenBucket(rate=2.0, burst=3.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)


def test_bucket_refills_lazily_from_elapsed_time():
    bucket = TokenBucket(rate=2.0, burst=4.0)
    for _ in range(4):
        assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    # 1s at 2 tokens/s -> 2 tokens exist, no timer process involved.
    assert bucket.try_take(1.0)
    assert bucket.try_take(1.0)
    assert not bucket.try_take(1.0)


def test_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    bucket.try_take(0.0)
    # A long idle period caps at burst, not rate * elapsed.
    assert bucket.retry_after(100.0) == 0.0
    assert bucket.try_take(100.0)
    assert bucket.try_take(100.0)
    assert not bucket.try_take(100.0)


def test_retry_after_reports_deficit_over_rate():
    bucket = TokenBucket(rate=2.0, burst=1.0)
    assert bucket.try_take(0.0)
    assert bucket.retry_after(0.0) == pytest.approx(0.5)


def test_retry_after_on_zero_rate_is_never():
    bucket = TokenBucket(rate=0.0, burst=1.0)
    assert bucket.try_take(0.0)
    assert bucket.retry_after(0.0) == 3600.0


def test_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=-1.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.0)


def test_registry_unmetered_without_bucket_or_default():
    quotas = QuotaRegistry()
    admitted, retry_after = quotas.admit("anyone", 0.0)
    assert admitted and retry_after == 0.0


def test_registry_meters_configured_tenant():
    quotas = QuotaRegistry()
    quotas.set_quota("gold", rate=1.0, burst=1.0)
    assert quotas.admit("gold", 0.0) == (True, 0.0)
    admitted, retry_after = quotas.admit("gold", 0.0)
    assert not admitted and retry_after == pytest.approx(1.0)
    assert quotas.admit("gold", 1.0) == (True, 0.0)


def test_registry_default_quota_mints_bucket_on_first_sight():
    quotas = QuotaRegistry(default_rate=1.0, default_burst=1.0)
    assert quotas.admit("newcomer", 0.0) == (True, 0.0)
    admitted, _ = quotas.admit("newcomer", 0.0)
    assert not admitted  # the minted bucket now meters them
    assert "newcomer" in quotas.checkpoint_state()


def test_snapshot_is_sorted_and_rounded():
    quotas = QuotaRegistry()
    quotas.set_quota("b", rate=1.0, burst=2.0)
    quotas.set_quota("a", rate=3.0, burst=4.0)
    snap = quotas.checkpoint_state()
    assert list(snap) == ["a", "b"]
    assert snap["a"] == {"tokens": 4.0, "rate": 3.0, "burst": 4.0,
                         "last": 0.0}
