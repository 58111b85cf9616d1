"""Circuit breakers — skip dead providers in O(1) instead of O(timeout).

Without a breaker, every exertion attempt against a partitioned provider
burns a full ``invocation_timeout`` before failing over; with many
candidates behind the same partition a single query stalls for the *sum*
of timeouts. A per-provider breaker remembers recent failures:

* **closed** — calls flow; ``FAILURE_THRESHOLD`` consecutive failures open it;
* **open** — calls are refused instantly until ``reset_timeout`` elapses;
* **half-open** — one trial call is let through; its success closes the
  breaker, its failure re-opens it.

Providers are keyed by service id (stable across the provider's life and
what the exerter's candidate items carry).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

__all__ = ["BreakerState", "CircuitBreaker", "BreakerRegistry", "CircuitOpenError"]


class CircuitOpenError(Exception):
    """Every candidate provider is currently open-circuit."""


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One provider's failure memory (closed → open → half-open)."""

    #: Consecutive failures that open a closed breaker.
    FAILURE_THRESHOLD = 3
    #: Trial calls a half-open breaker lets through at once.
    HALF_OPEN_PROBES = 1

    def __init__(self, reset_timeout: float = 10.0,
                 on_transition: Optional[Callable] = None):
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.reset_timeout = reset_timeout
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._last_probe_at: Optional[float] = None
        #: Counters for observability.
        self.opens = 0
        self.refusals = 0

    # -- state machine --------------------------------------------------------

    def _transition(self, state: BreakerState, now: float) -> None:
        if state is self.state:
            return
        old, self.state = self.state, state
        if state is BreakerState.OPEN:
            self.opened_at = now
            self.opens += 1
        if state is not BreakerState.HALF_OPEN:
            self._probes_in_flight = 0
        if self.on_transition is not None:
            self.on_transition(old, state, now)

    def try_acquire(self, now: float) -> bool:
        """May a call be issued now? Half-open acquisition counts a probe;
        pair every ``True`` with a later ``record_success``/``record_failure``."""
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and now - self.opened_at >= self.reset_timeout:
                self._transition(BreakerState.HALF_OPEN, now)
            else:
                self.refusals += 1
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_in_flight >= self.HALF_OPEN_PROBES:
                if self.pinned_probes(now):
                    self.refusals += 1
                    return False
                self._probes_in_flight = 0  # stale probes: slots reclaimed
            self._probes_in_flight += 1
            self._last_probe_at = now
        return True

    def pinned_probes(self, now: float) -> int:
        """How many probes pin a half-open breaker shut at ``now``: every
        slot is taken and the newest probe is younger than
        ``reset_timeout``. 0 when a call could get through. A probe whose
        caller never recorded an outcome (crashed mid-call, outcome path
        skipped) must not pin its slot forever, so after a full
        ``reset_timeout`` of silence the slots count as free again."""
        if (self.state is not BreakerState.HALF_OPEN
                or self._probes_in_flight < self.HALF_OPEN_PROBES):
            return 0
        if (self._last_probe_at is not None
                and now - self._last_probe_at >= self.reset_timeout):
            return 0
        return self._probes_in_flight

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.FAILURE_THRESHOLD:
            self._transition(BreakerState.OPEN, now)


class BreakerRegistry:
    """Per-provider breakers sharing one ``reset_timeout``.

    Setting ``enabled = False`` turns the registry into a pass-through (for
    ablation benchmarks: breaker-on vs breaker-off under the same fault
    script). Transitions are reported to ``events`` (a
    :class:`~repro.resilience.events.ResilienceEvents`) when attached.
    """

    def __init__(self, events=None):
        self.reset_timeout = 10.0
        self.enabled = True
        self.events = events
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker_for(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            def report(old, new, now, _key=key):
                if self.events is not None:
                    self.events.emit(f"breaker_{new.value}", key=_key,
                                     was=old.value)
            breaker = CircuitBreaker(self.reset_timeout, on_transition=report)
            self._breakers[key] = breaker
        return breaker

    def state_of(self, key: str) -> BreakerState:
        breaker = self._breakers.get(key)
        return breaker.state if breaker is not None else BreakerState.CLOSED

    def try_acquire(self, key: str, now: float) -> bool:
        if not self.enabled:
            return True
        return self.breaker_for(key).try_acquire(now)

    def record_success(self, key: str, now: float) -> None:
        if self.enabled:
            self.breaker_for(key).record_success(now)

    def record_failure(self, key: str, now: float) -> None:
        if self.enabled:
            self.breaker_for(key).record_failure(now)

    def items(self) -> list:
        """``(key, breaker)`` pairs, sorted by key."""
        return sorted(self._breakers.items())

    def snapshot(self) -> dict:
        return {key: breaker.state.value for key, breaker in self.items()}

    def checkpoint_state(self) -> dict:
        """Snapshot section: full per-breaker timing state (not just the
        management-plane view — ``opened_at`` and probe slots decide how
        a restored breaker behaves at the reset-timeout edge)."""
        return {key: {
            "consecutive_failures": breaker.consecutive_failures,
            "opened_at": breaker.opened_at,
            "opens": breaker.opens,
            "probes_in_flight": breaker._probes_in_flight,
            "refusals": breaker.refusals,
            "state": breaker.state.value,
        } for key, breaker in self.items()}
