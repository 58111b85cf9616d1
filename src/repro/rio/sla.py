"""SLA-driven autoscaling — a Rio extension the paper's provisioning enables.

An :class:`SlaScaler` watches a load signal for one service element and
adjusts the element's planned count on the monitor: scale out above the
high-water mark, scale in below the low-water mark, bounded by
``[min_planned, max_planned]``. Used by the E-PROV ablation.

The load signal is normally a metric-key prefix into the run's shared
:class:`~repro.observability.MetricsRegistry` — the same instruments the
health plane rolls up — summed across matching series (one per provisioned
instance):

* ``metric_kind="gauge"`` — current summed gauge value (e.g. total
  ``provider.inflight{provider=...}`` queue depth);
* ``metric_kind="rate"`` — summed counter increase since the previous
  check, per second (e.g. ``provider.served`` throughput).

A plain callable is still accepted wherever a metric key goes (tests and
ad-hoc experiments inject synthetic load that way).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from ..observability.registry import Counter, Gauge, metrics_registry

__all__ = ["SlaScaler"]

_METRIC_KINDS = ("gauge", "rate")


class SlaScaler:
    """Threshold-based scaler driving ``ProvisionMonitor.set_planned``."""

    def __init__(self, host: Host, monitor_ref: RemoteRef,
                 opstring_name: str, element_name: str,
                 load_metric: Union[str, Callable[[], float]],
                 high_water: float, low_water: float,
                 min_planned: int = 1, max_planned: int = 8,
                 check_interval: float = 2.0,
                 metric_kind: str = "gauge"):
        if low_water >= high_water:
            raise ValueError("low_water must be below high_water")
        if min_planned > max_planned:
            raise ValueError("min_planned must be <= max_planned")
        if metric_kind not in _METRIC_KINDS:
            raise ValueError(f"metric_kind must be one of {_METRIC_KINDS}")
        self.host = host
        self.env = host.env
        self.monitor_ref = monitor_ref
        self.opstring_name = opstring_name
        self.element_name = element_name
        self.load_metric = load_metric
        self.metric_kind = metric_kind
        self.high_water = high_water
        self.low_water = low_water
        self.min_planned = min_planned
        self.max_planned = max_planned
        self.check_interval = check_interval
        self.planned = min_planned
        self._endpoint = rpc_endpoint(host)
        self._registry = metrics_registry(host.network)
        #: Previous summed counter value, for the windowed rate.
        self._last_total: Optional[float] = None
        self._active = False
        self.history: list[tuple] = []

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self.env.process(self._loop(), name=f"sla:{self.element_name}")

    def stop(self) -> None:
        self._active = False

    # -- load signal ----------------------------------------------------------

    def _read_load(self) -> float:
        if callable(self.load_metric):
            return self.load_metric()
        total = 0.0
        for _key, metric in self._registry.items(self.load_metric):
            if self.metric_kind == "gauge" and isinstance(metric, Gauge):
                total += metric.value
            elif self.metric_kind == "rate" and isinstance(metric, Counter):
                total += metric.value
        if self.metric_kind == "gauge":
            return total
        previous, self._last_total = self._last_total, total
        if previous is None:
            return 0.0  # first observation: no window yet
        return max(0.0, total - previous) / self.check_interval

    # -- control loop ---------------------------------------------------------

    def _loop(self):
        while self._active:
            yield self.env.timeout(self.check_interval)
            if not self.host.up:
                continue
            load = self._read_load()
            target = self.planned
            if load > self.high_water and self.planned < self.max_planned:
                target = self.planned + 1
            elif load < self.low_water and self.planned > self.min_planned:
                target = self.planned - 1
            if target != self.planned:
                try:
                    yield self._endpoint.call(
                        self.monitor_ref, "set_planned", self.opstring_name,
                        self.element_name, target, kind="sla-scale")
                except NetworkError:
                    continue
                self.planned = target
                self.history.append((self.env.now, load, target))
