"""Tests for RetryPolicy and the stable jitter RNG."""

import pytest

from repro.resilience import RetryPolicy, backoff_rng


def test_delay_grows_exponentially_without_jitter():
    policy = RetryPolicy(base_delay=0.1, max_delay=10.0)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.4)
    assert policy.delay(5) == pytest.approx(3.2)


def test_delay_capped_at_max():
    policy = RetryPolicy(base_delay=1.0, max_delay=5.0)
    assert policy.delay(10) == 5.0


def test_jitter_shaves_down_never_up():
    policy = RetryPolicy(base_delay=1.0, max_delay=8.0)
    rng = backoff_rng("jitter-host")
    for attempt in range(6):
        raw = min(8.0, 1.0 * 2.0 ** attempt)
        d = policy.delay(attempt, rng)
        assert 0.5 * raw <= d <= raw


def test_jitter_deterministic_for_same_name():
    policy = RetryPolicy()
    a = [policy.delay(i, backoff_rng("host-a")) for i in range(8)]
    b = [policy.delay(i, backoff_rng("host-a")) for i in range(8)]
    assert a == b


def test_jitter_differs_across_names_and_salts():
    policy = RetryPolicy()
    a = [policy.delay(i, backoff_rng("host-a")) for i in range(8)]
    b = [policy.delay(i, backoff_rng("host-b")) for i in range(8)]
    c = [policy.delay(i, backoff_rng("host-a", salt=1)) for i in range(8)]
    assert a != b
    assert a != c


def test_no_rng_means_full_delay():
    policy = RetryPolicy(base_delay=0.5, max_delay=4.0)
    assert policy.delay(1) == pytest.approx(1.0)


def test_total_budget_bounds_sum_of_delays():
    policy = RetryPolicy(base_delay=0.2, max_delay=2.0)
    rng = backoff_rng("budget-host")
    total = sum(policy.delay(i, rng) for i in range(5))
    assert total <= policy.total_budget(5)


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_delay=-1.0)


# -- delay_before_retry: deadline checked before the sleep ---------------------


def test_delay_before_retry_passes_through_with_room():
    from repro.resilience import Deadline
    policy = RetryPolicy(base_delay=0.5)
    deadline = Deadline(expires_at=10.0)
    assert policy.delay_before_retry(0, deadline=deadline, now=0.0) == 0.5


def test_delay_before_retry_abandons_when_sleep_overruns_deadline():
    """Regression: the deadline must be checked *before* backoff sleeps.

    A retry whose backoff ends at-or-past the deadline is abandoned (None)
    instead of slept through — sleeping first burned a provider slot on an
    answer nobody could use.
    """
    from repro.resilience import Deadline
    policy = RetryPolicy(base_delay=1.0)
    # 0.4s left, 1.0s backoff: pointless.
    assert policy.delay_before_retry(
        0, deadline=Deadline(expires_at=1.0), now=0.6) is None
    # Exactly equal is still pointless (the reply would land at expiry).
    assert policy.delay_before_retry(
        0, deadline=Deadline(expires_at=1.0), now=0.0) is None
    # A hair of slack and the retry proceeds.
    assert policy.delay_before_retry(
        0, deadline=Deadline(expires_at=1.01), now=0.0) == 1.0


def test_delay_before_retry_without_deadline_never_abandons():
    policy = RetryPolicy(base_delay=1.0)
    assert policy.delay_before_retry(3) == pytest.approx(5.0)


def test_abandoned_retry_still_consumes_the_jitter_draw():
    """Abandoning a retry must not reshuffle later jitter: the RNG is
    advanced whether or not the deadline kills the sleep."""
    from repro.resilience import Deadline
    policy = RetryPolicy(base_delay=1.0)
    tight = Deadline(expires_at=0.0)   # every retry abandoned

    with_abandons = backoff_rng("stream-host")
    assert policy.delay_before_retry(0, with_abandons, tight, 0.0) is None
    later_a = policy.delay(1, with_abandons)

    no_abandons = backoff_rng("stream-host")
    policy.delay(0, no_abandons)       # same draw, nobody abandoned
    later_b = policy.delay(1, no_abandons)

    assert later_a == later_b
