"""Time-series rollups — fixed windows over the metrics registry.

The :class:`~repro.observability.registry.MetricsRegistry` is cumulative:
a counter only ever says "12 407 calls so far". Health questions are about
*now*: "how many failures per second in the last window?", "what was p95
latency over the last five seconds?". A :class:`TimeSeriesStore` answers
them by snapshotting every instrument at a fixed simulation-time interval
and keeping the per-window deltas in a bounded ring:

* **counter** → delta and rate (delta / interval) per window;
* **gauge** → last value and high-water mark per window;
* **histogram** → per-window sample count, p50/p95 (interpolated over the
  window's *bucket deltas*, not the cumulative counts) and a conservative
  max (highest occupied bucket bound).

Everything is driven by the simulation clock through
:meth:`TimeSeriesStore.collect`, so two identically seeded runs produce
identical series — the property the SLO engine's alert determinism and the
``repro status --json`` golden tests stand on.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .quantiles import max_from_buckets, quantile_from_buckets
from .registry import Counter, Gauge, MetricsRegistry

__all__ = ["TimeSeriesStore", "Window"]


class Window:
    """One metric's rollup for one collection interval."""

    __slots__ = ("t", "kind", "value", "delta", "rate", "count",
                 "p50", "p95", "max")

    def __init__(self, t: float, kind: str, value: Optional[float] = None,
                 delta: Optional[float] = None, rate: Optional[float] = None,
                 count: Optional[int] = None, p50: Optional[float] = None,
                 p95: Optional[float] = None, max: Optional[float] = None):
        self.t = t          # window *end* time (simulation seconds)
        self.kind = kind
        self.value = value  # gauges: value at collection time
        self.delta = delta  # counters/histogram count increase this window
        self.rate = rate    # counters: delta / interval
        self.count = count  # histograms: samples observed this window
        self.p50 = p50
        self.p95 = p95
        self.max = max

    def to_dict(self) -> dict:
        out = {"t": self.t, "kind": self.kind}
        for field in ("value", "delta", "rate", "count", "p50", "p95", "max"):
            v = getattr(self, field)
            if v is not None:
                out[field] = v
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Window t={self.t} {self.kind} {self.to_dict()}>"


class TimeSeriesStore:
    """Bounded ring of per-window rollups for every registry instrument.

    A window spans ``INTERVAL`` simulated seconds. ``RETENTION`` caps the
    number of windows kept per metric; older windows fall off the ring.
    The store never creates metrics and never touches the network — it
    reads instrument state in-process, which is free in the simulation's
    management plane (the same privilege the tracer has).
    """

    INTERVAL = 1.0
    RETENTION = 120

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._series: dict[str, deque] = {}
        #: Cumulative state at the previous collection, per metric key:
        #: counters → value; histograms → (count, counts list copy).
        self._previous: dict[str, object] = {}
        #: Sorted key list and per-prefix sublists, rebuilt only when a new
        #: metric first rolls (collect runs every simulated second and the
        #: health model filters by prefix every tick; sorting/scanning
        #: there is waste).
        self._sorted_names: Optional[list[str]] = None
        self._prefix_names: dict[str, list[str]] = {}
        self.collections = 0
        self.last_collected_at: Optional[float] = None

    # -- rolling --------------------------------------------------------------

    def _ring(self, key: str) -> deque:
        ring = self._series.get(key)
        if ring is None:
            ring = deque(maxlen=self.RETENTION)
            self._series[key] = ring
            self._sorted_names = None
            self._prefix_names.clear()
        return ring

    def collect(self, now: float) -> None:
        """Roll every instrument's state into one window ending at ``now``.

        Quiet instruments append nothing: a counter that did not move, a
        gauge that kept its value, a histogram with no new samples. The
        readers below reconstruct the implied zero windows from the time
        horizon, so sparse rings read exactly like dense ones — and the
        per-tick cost tracks the *active* metric count, not the total.
        """
        # Hot path: runs once per simulated second over every metric in
        # the run, so it iterates unsorted, dispatches on exact type and
        # keeps attribute lookups out of the loop.
        series = self._series
        previous = self._previous
        interval = self.INTERVAL
        for key, metric in self.registry.iter_items():
            cls = type(metric)
            if cls is Counter:
                value = metric.value
                delta = value - previous.get(key, 0.0)
                if delta == 0.0 and key in series:
                    continue
                previous[key] = value
                self._ring(key).append(Window(
                    now, "counter", delta=delta, rate=delta / interval))
            elif cls is Gauge:
                ring = series.get(key)
                if ring is None:
                    ring = self._ring(key)
                elif ring:
                    last = ring[-1]
                    if (last.value == metric.value
                            and last.max == metric.max_value):
                        continue
                ring.append(Window(
                    now, "gauge", value=metric.value, max=metric.max_value))
            else:  # Histogram
                prev_counts = previous.get(key)
                counts = metric.counts
                if counts == prev_counts:
                    continue
                if prev_counts is None:
                    if key not in series:
                        self._ring(key)  # the series exists from t0 on
                    if not metric.count:
                        continue
                    window_counts = list(counts)
                else:
                    window_counts = [n - p for n, p
                                     in zip(counts, prev_counts)]
                previous[key] = list(counts)
                count = sum(window_counts)
                self._ring(key).append(Window(
                    now, "histogram", count=count,
                    delta=float(count), rate=count / interval,
                    p50=quantile_from_buckets(metric.buckets, window_counts,
                                              0.5),
                    p95=quantile_from_buckets(metric.buckets, window_counts,
                                              0.95),
                    max=max_from_buckets(metric.buckets, window_counts)))
        self.collections += 1
        self.last_collected_at = now

    # -- reading --------------------------------------------------------------

    def names(self, prefix: str = "") -> list[str]:
        if self._sorted_names is None:
            self._sorted_names = sorted(self._series)
        if not prefix:
            return list(self._sorted_names)
        cached = self._prefix_names.get(prefix)
        if cached is None:
            cached = [k for k in self._sorted_names if k.startswith(prefix)]
            self._prefix_names[prefix] = cached
        return list(cached)

    def series(self, key: str, windows: Optional[int] = None) -> list[Window]:
        ring = self._series.get(key)
        if not ring:
            return []
        out = list(ring)
        return out if windows is None else out[-windows:]

    def latest(self, key: str) -> Optional[Window]:
        ring = self._series.get(key)
        return ring[-1] if ring else None

    def rate(self, key: str, windows: int) -> float:
        """Mean per-second rate over the last ``windows`` windows (0.0 for
        unknown metrics: an absent counter has observed nothing)."""
        ring = self._series.get(key)
        if not ring or self.last_collected_at is None:
            return 0.0
        interval = self.INTERVAL
        cutoff = (self.last_collected_at - windows * interval
                  + 1e-9 * interval)
        total = 0.0
        for window in reversed(ring):
            if window.t <= cutoff:
                break
            if window.delta is not None:
                total += window.delta
        return total / (windows * interval)

    def value(self, key: str) -> Optional[float]:
        """Latest gauge value (``None`` for unknown/never-collected)."""
        window = self.latest(key)
        return window.value if window is not None else None

    def sum_rate(self, prefix: str, windows: int) -> float:
        """Summed rate across every metric sharing ``prefix`` — collapses
        per-host/per-provider label fan-out into one network-wide signal."""
        return sum(self.rate(key, windows) for key in self.names(prefix))

    def snapshot(self) -> dict:
        """Deterministic dump of the last window of every metric."""
        return {key: [w.to_dict() for w in self.series(key, 1)]
                for key in self.names()}

    def __len__(self) -> int:
        return len(self._series)
