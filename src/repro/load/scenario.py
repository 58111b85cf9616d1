"""The paper lab under protection: admission control + open-loop tenants.

``build_load_lab`` takes the stock §VI deployment and makes it a
capacity-bounded, multi-tenant system:

* the facade gets an :class:`~repro.overload.AdmissionController` with a
  weighted-fair queue over the tenants;
  the jobber gets a plain bounded FIFO — rendezvous work has no tenant
  skew worth arbitrating;
* the composite coalesces concurrent reads (one child fan-out serves all
  overlapping ``getValue`` queries);
* elementary sensors get a configurable ``op_overhead`` so the lab has a
  *knowable* capacity (max_inflight / per-request service time) that the
  E-LOAD benchmark can push past;
* the health engine watches the overload SLO on top of the stock set.

The returned :class:`LoadLab` carries the paper lab, the controller and
an :class:`~repro.load.engine.OpenLoopEngine` ready to ``run()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net import Host
from ..observability.health import overload_slos
from ..overload import AdmissionController, WeightedFairQueue
from ..resilience import resilience_events
from ..scenarios.paper_lab import SENSOR_NAMES, PaperLab, build_paper_lab
from .engine import OpenLoopEngine, TenantSpec

__all__ = ["LoadLab", "DEFAULT_TENANTS", "build_load_lab"]

#: Three service classes, 3:2:1 weights, ~50 req/s offered at scale 1.0.
DEFAULT_TENANTS = (
    TenantSpec("gold", rate=25.0, weight=3.0,
               targets=SENSOR_NAMES),
    TenantSpec("silver", rate=15.0, weight=2.0,
               targets=SENSOR_NAMES),
    TenantSpec("bronze", rate=10.0, weight=1.0,
               targets=SENSOR_NAMES),
)


@dataclass
class LoadLab:
    lab: PaperLab
    engine: OpenLoopEngine
    admission: AdmissionController
    tenants: tuple

    @property
    def env(self):
        return self.lab.env

    def run(self) -> dict:
        """Drive the engine to completion and return its summary."""
        proc = self.env.process(self.engine.run(), name="load-engine")
        self.env.run(until=proc)
        return self.engine.summary()


def build_load_lab(seed: int = 2009, tenants=None, duration: float = 8.0,
                   scale: float = 1.0, max_inflight: int = 4,
                   max_queue: int = 16, esp_overhead: float = 0.05,
                   settle: float = 6.0, trace: Optional[dict] = None) -> LoadLab:
    """A protected paper lab plus an open-loop engine against it.

    Capacity ≈ ``max_inflight / (esp_overhead + overlay overhead)`` —
    with the defaults roughly 50-60 req/s, so ``scale`` ~1 sits near the
    knee and ``scale`` ≥ 1.5 is firmly past saturation.
    """
    tenants = tuple(tenants) if tenants is not None else DEFAULT_TENANTS
    lab = build_paper_lab(seed=seed)
    # Give requests a real service time so saturation is reachable at
    # rates the sim can sweep quickly.
    for esp in lab.sensors.values():
        esp.op_overhead = esp_overhead
    lab.composite.coalesce = True
    registry_events = resilience_events(lab.net)
    from ..observability import metrics_registry
    registry = metrics_registry(lab.net)
    fair = WeightedFairQueue(
        weights={spec.name: spec.weight for spec in tenants})
    admission = AdmissionController(
        lab.env, lab.facade.name, registry, events=registry_events,
        max_inflight=max_inflight, max_queue=max_queue, fair=fair)
    lab.facade.admission = admission
    # The jobber serves rendezvous jobs; bound it too so composite work
    # cannot pile up behind a saturated facade.
    lab.jobber.admission = AdmissionController(
        lab.env, lab.jobber.name, registry, events=registry_events,
        max_inflight=max_inflight * 2, max_queue=max_queue * 2)
    for slo in overload_slos():
        lab.health.engine.add(slo)
    engine_host = Host(lab.net, "load-host")
    engine = OpenLoopEngine(engine_host, tenants, seed=seed,
                            duration=duration, scale=scale,
                            facade_name=lab.facade.name, trace=trace)
    lab.settle(settle)
    return LoadLab(lab=lab, engine=engine, admission=admission,
                   tenants=tenants)
