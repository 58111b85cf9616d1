"""Resilience layer — the failure-handling policies the paper leaves implicit.

The paper's availability claim ("a request can be passed on to the
equivalent available service provider", §IV.D) needs more than failover to
hold up under churn: retries must back off instead of hammering, a caller's
patience must be an explicit end-to-end budget rather than a product of
nested timeouts, dead providers must be skipped in O(1) instead of burning
a full timeout per attempt, and a composite should be able to keep
answering with bounded-stale data while a child is partitioned away.

Components (each usable on its own):

* :class:`RetryPolicy` — exponential backoff with *deterministic* seeded
  jitter (all delays come from the sim clock + a stable per-host RNG, so
  identical seeds replay identical traces);
* :class:`Deadline` — an absolute sim-time expiry carried in
  :class:`~repro.sorcer.exertion.ControlContext` and propagated through
  nested CSP→ESP hops via the service context (``DEADLINE_PATH``);
* :class:`CircuitBreaker` / :class:`BreakerRegistry` — per-provider
  closed → open → half-open breakers consulted by the exerter;
* :class:`ResilienceEvents` — retry/breaker/stale/deadline events counted
  in the metrics registry and kept as an ordered ``==``-comparable trace
  for benchmarks and the browser.
"""

from .breaker import BreakerRegistry, BreakerState, CircuitBreaker, CircuitOpenError
from .budget import RetryBudget, retry_budget_of
from .deadline import DEADLINE_PATH, Deadline, DeadlineExceeded
from .events import ResilienceEvents, resilience_events
from .policy import RetryPolicy, backoff_rng

__all__ = [
    "BreakerRegistry",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEADLINE_PATH",
    "Deadline",
    "DeadlineExceeded",
    "ResilienceEvents",
    "RetryBudget",
    "RetryPolicy",
    "backoff_rng",
    "resilience_events",
    "retry_budget_of",
]
