"""Tests for the circuit breaker state machine and registry."""

from repro.resilience import BreakerRegistry, BreakerState, CircuitBreaker


def trip(breaker, now):
    """Open a closed breaker: FAILURE_THRESHOLD failures at ``now``."""
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure(now)


def trip_key(registry, key, now):
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        registry.record_failure(key, now)


def test_starts_closed_and_admits():
    breaker = CircuitBreaker()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.try_acquire(0.0)


def test_opens_after_threshold_consecutive_failures():
    breaker = CircuitBreaker(reset_timeout=10.0)
    for t in range(2):
        breaker.record_failure(float(t))
        assert breaker.state is BreakerState.CLOSED
    breaker.record_failure(2.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 1
    assert not breaker.try_acquire(3.0)
    assert breaker.refusals == 1


def test_success_resets_failure_count():
    breaker = CircuitBreaker()
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    breaker.record_success(2.0)
    breaker.record_failure(3.0)
    breaker.record_failure(4.0)
    assert breaker.state is BreakerState.CLOSED


def test_half_open_after_reset_timeout():
    breaker = CircuitBreaker(reset_timeout=5.0)
    trip(breaker, 0.0)
    assert breaker.state is BreakerState.OPEN
    assert not breaker.try_acquire(4.9)
    assert breaker.try_acquire(5.0)
    assert breaker.state is BreakerState.HALF_OPEN


def test_half_open_probe_success_closes():
    breaker = CircuitBreaker(reset_timeout=5.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(6.0)
    breaker.record_success(6.1)
    assert breaker.state is BreakerState.CLOSED


def test_half_open_probe_failure_reopens():
    breaker = CircuitBreaker(reset_timeout=5.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(6.0)
    breaker.record_failure(6.5)
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 2
    # Clock restarts from the re-open, not the original failure.
    assert not breaker.try_acquire(10.0)
    assert breaker.try_acquire(11.5)


def test_half_open_limits_concurrent_probes():
    breaker = CircuitBreaker(reset_timeout=5.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(6.0)
    assert not breaker.try_acquire(6.0)  # second probe refused


def test_transition_callback_fires():
    seen = []
    breaker = CircuitBreaker(reset_timeout=5.0,
                             on_transition=lambda old, new, now:
                             seen.append((old, new, now)))
    trip(breaker, 1.0)
    breaker.try_acquire(7.0)
    breaker.record_success(7.5)
    assert seen == [
        (BreakerState.CLOSED, BreakerState.OPEN, 1.0),
        (BreakerState.OPEN, BreakerState.HALF_OPEN, 7.0),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED, 7.5),
    ]


def test_registry_keys_are_independent():
    registry = BreakerRegistry()
    trip_key(registry, "dead", 0.0)
    assert registry.state_of("dead") is BreakerState.OPEN
    assert registry.state_of("alive") is BreakerState.CLOSED
    assert not registry.try_acquire("dead", 1.0)
    assert registry.try_acquire("alive", 1.0)


def test_registry_disabled_is_passthrough():
    registry = BreakerRegistry()
    registry.enabled = False
    for t in range(10):
        registry.record_failure("dead", float(t))
    assert registry.try_acquire("dead", 100.0)
    assert registry.snapshot() == {}


def test_registry_snapshot():
    registry = BreakerRegistry()
    trip_key(registry, "b", 0.0)
    registry.record_success("a", 0.0)
    assert registry.snapshot() == {"a": "closed", "b": "open"}


# -- stuck-half-open regression (probe in flight at heal time) ---------------------


def test_half_open_probe_without_outcome_pins_slot_short_term():
    """Inside the reset window an unresolved probe still holds its slot —
    reclaiming immediately would let a herd through half-open."""
    breaker = CircuitBreaker(reset_timeout=10.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(11.0)       # half-open probe, never resolved
    assert not breaker.try_acquire(12.0)
    assert not breaker.try_acquire(20.9)


def test_stale_half_open_probe_is_reclaimed():
    """Regression: a probe whose caller never records an outcome (host
    healed mid-call, outcome path skipped) must not wedge the breaker.
    After a full reset_timeout of silence the slot is taken back."""
    breaker = CircuitBreaker(reset_timeout=10.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(11.0)       # probe pinned at t=11
    assert not breaker.try_acquire(15.0)   # still wedged inside the window
    assert breaker.try_acquire(21.5)       # 10.5s of silence: reclaimed
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success(22.0)
    assert breaker.state is BreakerState.CLOSED


def test_reclaimed_probe_updates_last_probe_time():
    breaker = CircuitBreaker(reset_timeout=10.0)
    trip(breaker, 0.0)
    assert breaker.try_acquire(11.0)
    assert breaker.try_acquire(25.0)       # reclaim; fresh probe at t=25
    # The fresh probe now owns the slot: no second reclaim until t>=35.
    assert not breaker.try_acquire(30.0)
    assert breaker.try_acquire(35.0)
