"""Resilience event stream — what the failure machinery did and when.

Every resilience decision (retry scheduled, breaker opened/half-open/closed,
stale substitution, deadline exceeded, lease renewal retried) is emitted
here. Counters land in the run's shared
:class:`~repro.observability.MetricsRegistry` (``resilience.<kind>``);
the timestamped event trace is a plain list of ``(time, kind, fields)``
tuples so whole traces compare with plain ``==``. Benchmarks assert on the
counters; determinism tests compare whole traces; the browser can render
the trace as a timeline.

One stream exists per :class:`~repro.net.network.Network` (lazily created,
like per-host RPC endpoints) so every component in a run — exerters on any
host, lease renewal services, CSPs — shares a single ordered trace.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..observability.registry import MetricsRegistry
from ..sim import Environment

__all__ = ["ResilienceEvents", "resilience_events"]


class ResilienceEvents:
    """Clock-stamped emitter over an ordered trace + metrics registry."""

    def __init__(self, env: Environment,
                 metrics: Optional[MetricsRegistry] = None):
        self.env = env
        #: Ordered (time, kind, fields) tuples; fields is a sorted tuple of
        #: (key, value) pairs so two traces compare with plain ``==``.
        self._trace: list[tuple] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._listeners: list = []
        # emit() runs per kernel event on fault-heavy paths; resolving the
        # counter through the registry costs an f-string plus two dict
        # lookups each time, so handles are memoized per kind.
        self._counters: dict = {}

    def subscribe(self, listener) -> None:
        """Call ``listener(kind, fields)`` synchronously on every emit —
        this is how the health model hears about lease expiries without
        the jini layer knowing the health model exists."""
        self._listeners.append(listener)

    def emit(self, kind: str, **fields) -> None:
        counter = self._counters.get(kind)
        if counter is None:
            counter = self._counters[kind] = self.metrics.counter(
                f"resilience.{kind}")
        counter.inc()
        self._trace.append((float(self.env.now), kind,
                            tuple(sorted(fields.items()))))
        for listener in self._listeners:
            listener(kind, fields)

    def count(self, kind: str) -> float:
        return self.metrics.value(f"resilience.{kind}")

    @property
    def trace(self) -> list:
        """The full ordered event trace: ``(time, kind, fields)`` tuples."""
        return list(self._trace)


def resilience_events(network) -> ResilienceEvents:
    """The network's shared resilience event stream (created on first use),
    counting into the network's shared metrics registry."""
    events = network.shared.get("resilience_events")
    if events is None:
        from ..observability.registry import metrics_registry
        events = network.shared["resilience_events"] = ResilienceEvents(
            network.env, metrics=metrics_registry(network))

        def _events_state() -> dict:
            # Counters already live in the "metrics" section; pin the
            # ordered trace itself by length + checksum.
            trace = events.trace
            return {"count": len(trace),
                    "crc32": zlib.crc32(repr(trace).encode("utf-8"))}

        network.env.register_state("resilience.events", _events_state)
    return events
