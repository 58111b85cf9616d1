"""SLA-driven autoscaling — a Rio extension the paper's provisioning enables.

An :class:`SlaScaler` polls a load signal — a callable returning the
current load — for one service element every ``CHECK_INTERVAL`` seconds
and adjusts the element's planned count on the monitor: scale out above
the high-water mark, scale in below the low-water mark, bounded by
``[MIN_PLANNED, MAX_PLANNED]``. Used by the E-PROV ablation.
"""

from __future__ import annotations

from typing import Callable

from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint

__all__ = ["SlaScaler"]


class SlaScaler:
    """Threshold-based scaler driving ``ProvisionMonitor.set_planned``."""

    MIN_PLANNED = 1
    MAX_PLANNED = 4
    CHECK_INTERVAL = 2.0

    def __init__(self, host: Host, monitor_ref: RemoteRef,
                 opstring_name: str, element_name: str,
                 load_metric: Callable[[], float],
                 high_water: float, low_water: float):
        if low_water >= high_water:
            raise ValueError("low_water must be below high_water")
        self.host = host
        self.env = host.env
        self.monitor_ref = monitor_ref
        self.opstring_name = opstring_name
        self.element_name = element_name
        self.load_metric = load_metric
        self.high_water = high_water
        self.low_water = low_water
        self.planned = self.MIN_PLANNED
        self._endpoint = rpc_endpoint(host)
        self._active = False
        self.history: list[tuple] = []

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self.env.process(self._loop(), name=f"sla:{self.element_name}")

    def stop(self) -> None:
        self._active = False

    # -- control loop ---------------------------------------------------------

    def _loop(self):
        while self._active:
            yield self.env.timeout(self.CHECK_INTERVAL)
            if not self.host.up:
                continue
            load = self.load_metric()
            target = self.planned
            if load > self.high_water and self.planned < self.MAX_PLANNED:
                target = self.planned + 1
            elif load < self.low_water and self.planned > self.MIN_PLANNED:
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
