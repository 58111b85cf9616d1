"""Metrics registry — named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` exists per network (via
:func:`metrics_registry`): a single namespace the whole run shares —
exertion latency, RPC round trips, retries, breaker transitions, lease
renewals, provider load and buffer depths all land here under stable names with optional labels
(``rpc.calls{host=facade-host}``).

Design constraints, in order:

* **determinism** — a snapshot is a plain sorted dict; two identically
  seeded runs produce byte-identical snapshots;
* **hot-path cheapness** — instrumented components look their instruments
  up once and keep the handle (``self._m_calls = registry.counter(...)``);
  recording is then an attribute increment;
* **renderability** — a snapshot feeds
  :func:`repro.observability.export.render_metrics` (operator tables).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .quantiles import max_from_buckets, quantile_from_buckets

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "metrics_registry", "DEFAULT_LATENCY_BUCKETS"]

#: Upper bucket bounds (seconds) suiting both RPC round trips and whole
#: exertions on the simulated LAN; the implicit +inf bucket is always last.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")
    metric_type = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that goes up and down (queue depth, in-flight requests)."""

    __slots__ = ("name", "value", "max_value")
    metric_type = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        #: High-water mark, for "how deep did the queue ever get" questions.
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self._apply(float(value))

    def inc(self, amount: float = 1.0) -> None:
        self._apply(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _apply(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self):
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """Fixed-bucket histogram (cumulative counts, like Prometheus).

    ``buckets`` are upper bounds; an implicit +inf bucket catches the rest.
    Fixed buckets keep recording O(log B) and snapshots comparable across
    runs regardless of sample order.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")
    metric_type = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or sorted(bounds) != list(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} needs strictly increasing buckets")
        self.name = name
        # Default-bucket histograms share one bounds tuple.
        self.buckets = (DEFAULT_LATENCY_BUCKETS
                        if bounds == DEFAULT_LATENCY_BUCKETS else bounds)
        self.counts = [0] * (len(bounds) + 1)  # last slot = +inf
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile_interpolated(self, q: float) -> Optional[float]:
        """Linearly interpolated q-quantile estimate (see
        :func:`repro.observability.quantiles.quantile_from_buckets`)."""
        return quantile_from_buckets(self.buckets, self.counts, q)

    @property
    def max_bound(self) -> Optional[float]:
        """Upper bound of the highest occupied bucket."""
        return max_from_buckets(self.buckets, self.counts)

    def snapshot(self):
        return {"count": self.count, "total": self.total,
                "buckets": list(self.buckets), "counts": list(self.counts)}


class MetricsRegistry:
    """All instruments of one simulation run, keyed by name + labels."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"{key!r} is already registered as {metric.metric_type}, "
                f"not {cls.metric_type}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- reading --------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """A counter/gauge's current value *without* creating the metric
        (querying an unknown name must not change the registry)."""
        metric = self._metrics.get(_key(name, labels))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return float(metric.count)
        return metric.value

    def quantile(self, name: str, q: float, **labels) -> Optional[float]:
        """Interpolated quantile of a histogram, ``None`` when the metric
        is unknown, empty or not a histogram (query must not create it)."""
        metric = self._metrics.get(_key(name, labels))
        if not isinstance(metric, Histogram):
            return None
        return metric.quantile_interpolated(q)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._metrics if k.startswith(prefix))

    def items(self, prefix: str = ""):
        """(key, instrument) pairs in sorted key order — the raw handles,
        for rollup machinery that needs more than :meth:`snapshot`."""
        return [(key, self._metrics[key]) for key in self.names(prefix)]

    def iter_items(self):
        """(key, instrument) pairs in registration order, unsorted — the
        cheap iteration the per-tick rollup path uses (order does not
        matter there: every key rolls into its own independent ring)."""
        return self._metrics.items()

    def snapshot(self) -> dict:
        """Deterministic (sorted) dump of every instrument's state."""
        return {key: {"type": self._metrics[key].metric_type,
                      "data": self._metrics[key].snapshot()}
                for key in self.names()}

    def __len__(self) -> int:
        return len(self._metrics)


def metrics_registry(network) -> MetricsRegistry:
    """The network's shared metrics registry (created on first use)."""
    registry = network.shared.get("metrics_registry")
    if registry is None:
        registry = network.shared["metrics_registry"] = MetricsRegistry()
        # Unlike the other network singletons this one never touches the
        # env itself, and tests attach registries to bare stand-in
        # networks — only a real simulated network joins the snapshot.
        env = getattr(network, "env", None)
        if env is not None:
            env.register_state("metrics", registry.snapshot)
    return registry
