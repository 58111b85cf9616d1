"""Open-loop multi-tenant traffic against a SenSORCER lab.

*Open loop* is the property that matters: arrival times are drawn from a
seeded Poisson process (or a fixed trace) and **do not slow down when the
system is busy**. A closed-loop driver (issue, wait, issue again)
self-throttles and can never push a federation past saturation; real
sensor fleets, dashboards and cron-driven pollers do not wait for each
other. Under open-loop load an unprotected system's queues grow without
bound — which is exactly the regime the overload-control plane
(:mod:`repro.overload`) must turn into graceful degradation.

Determinism: each tenant's arrival gaps come from its own
:func:`~repro.util.rng.substream` (``seed / "load" / tenant``), so adding
a tenant, changing another tenant's rate, or injecting a burst never
perturbs anyone else's arrival sequence. Requests are fired as numbered
processes on the sim clock; everything downstream inherits the kernel's
tie-break discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from ..core.interfaces import FACADE
from ..observability import metrics_registry
from ..sorcer.exerter import Exerter, ExertionFailed
from ..sorcer.rejection import Overloaded
from ..sorcer.signature import Signature
from ..util.rng import substream

__all__ = ["TenantSpec", "OpenLoopEngine"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load.

    ``rate`` is requests/second into the facade (before any scale or
    burst factor); ``targets`` are the sensor names it reads, round-robin.
    ``DEADLINE`` is each request's end-to-end budget — a request that
    completes after it counts as offered and completed but not as goodput.
    A request is never retried.
    """

    DEADLINE: ClassVar[float] = 2.0

    name: str
    rate: float
    weight: float = 1.0
    targets: tuple = ()


class OpenLoopEngine:
    """Seeded Poisson/trace-driven requestors for a set of tenants.

    ``trace`` (optional) maps tenant name -> iterable of *absolute*
    arrival times, replacing that tenant's Poisson process — replay a
    recorded workload, or hand-craft a pathological one.
    """

    DRAIN_POLL = 0.25  # seconds between checks that the tail has drained

    def __init__(self, host, tenants, seed: int = 0, duration: float = 8.0,
                 scale: float = 1.0, facade_name: Optional[str] = None,
                 trace: Optional[dict] = None):
        self.host = host
        self.env = host.env
        self.tenants = tuple(tenants)
        if not self.tenants:
            raise ValueError("need at least one tenant")
        self.seed = int(seed)
        self.duration = float(duration)
        self.scale = float(scale)
        self.facade_name = facade_name
        self.trace = dict(trace or {})
        self.exerter = Exerter(host)
        #: tenant -> (factor, until): a chaos-injected offered-load spike.
        self._bursts: dict[str, tuple] = {}
        self.inflight = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        names = [spec.name for spec in self.tenants]
        self._offered = {n: 0 for n in names}
        self._completed = {n: 0 for n in names}
        self._goodput = {n: 0 for n in names}
        self._failed = {n: 0 for n in names}
        self._rejected: dict[str, dict] = {n: {} for n in names}
        registry = metrics_registry(host.network)
        self._m_offered = {n: registry.counter("load.offered", tenant=n)
                           for n in names}
        self._m_goodput = {n: registry.counter("load.goodput", tenant=n)
                           for n in names}
        self._hist = {n: registry.histogram("load.latency", tenant=n)
                      for n in names}
        self._hist_all = registry.histogram("load.latency", tenant="_total")
        self.env.register_state("load.engine", self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: per-tenant counters, bursts, open-loop gate."""
        return {
            "bursts": {tenant: list(burst) for tenant, burst
                       in sorted(self._bursts.items())},
            "completed": dict(sorted(self._completed.items())),
            "failed": dict(sorted(self._failed.items())),
            "finished_at": self.finished_at,
            "goodput": dict(sorted(self._goodput.items())),
            "inflight": self.inflight,
            "offered": dict(sorted(self._offered.items())),
            "rejected": {tenant: dict(sorted(reasons.items()))
                         for tenant, reasons
                         in sorted(self._rejected.items())},
            "started_at": self.started_at,
        }

    # -- chaos hook -------------------------------------------------------------

    def burst(self, tenant: str, factor: float, until: float) -> None:
        """Multiply ``tenant``'s offered rate by ``factor`` until sim time
        ``until`` (the ``tenant-burst`` chaos fault). Overlapping bursts
        compose by worst case: the larger factor and the later expiry."""
        factor = max(1.0, float(factor))
        until = float(until)
        current = self._bursts.get(tenant)
        if current is not None and self.env.now < current[1]:
            factor = max(factor, current[0])
            until = max(until, current[1])
        self._bursts[tenant] = (factor, until)

    def burst_factor(self, tenant: str) -> float:
        entry = self._bursts.get(tenant)
        if entry is None or self.env.now >= entry[1]:
            return 1.0
        return entry[0]

    # -- traffic ---------------------------------------------------------------

    def _request(self, spec: TenantSpec, index: int):
        target = spec.targets[index % len(spec.targets)]
        t0 = self.env.now
        name = spec.name
        label = f"load-{name}-{index}"
        try:
            yield from self.exerter.call(
                Signature(FACADE, "getValue", provider_name=self.facade_name),
                {"name": target}, name=label, context=label, principal=name,
                budget=spec.DEADLINE, retries=0,
                provider_wait=min(1.0, spec.DEADLINE))
        except Overloaded as shed:
            by_reason = self._rejected[name]
            by_reason[shed.reason] = by_reason.get(shed.reason, 0) + 1
            return
        except ExertionFailed:
            self._failed[name] += 1
            return
        finally:
            self.inflight -= 1
        elapsed = self.env.now - t0
        self._completed[name] += 1
        self._hist[name].observe(elapsed)
        self._hist_all.observe(elapsed)
        if elapsed <= spec.DEADLINE:
            self._goodput[name] += 1
            self._m_goodput[name].inc()

    def _arrivals(self, spec: TenantSpec):
        rng = substream(self.seed, "load", spec.name)
        end = self.started_at + self.duration
        trace = self.trace.get(spec.name)
        if trace is not None:
            times = iter(sorted(float(t) for t in trace))
        index = 0
        while True:
            if trace is not None:
                at = next(times, None)
                if at is None or at >= end:
                    break
                gap = max(0.0, at - self.env.now)
            else:
                rate = spec.rate * self.scale * self.burst_factor(spec.name)
                if rate <= 0:
                    break
                gap = float(rng.exponential(1.0 / rate))
            yield self.env.timeout(gap)
            if self.env.now >= end:
                break
            self._offered[spec.name] += 1
            self._m_offered[spec.name].inc()
            self.inflight += 1
            self.env.process(self._request(spec, index),
                             name=f"load:{spec.name}:{index}")
            index += 1

    def run(self):
        """Drive the full campaign (a generator — run as a process):
        start every tenant's arrival process, wait for all arrivals to
        stop, then drain the in-flight tail."""
        self.started_at = self.env.now
        procs = [self.env.process(self._arrivals(spec),
                                  name=f"load-arrivals:{spec.name}")
                 for spec in self.tenants]
        yield self.env.all_of(procs)
        while self.inflight > 0:
            yield self.env.timeout(self.DRAIN_POLL)
        self.finished_at = self.env.now

    # -- results ---------------------------------------------------------------

    def _quantiles(self, hist) -> dict:
        out = {}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            value = hist.quantile_interpolated(q)
            out[label] = round(value, 6) if value is not None else None
        return out

    def summary(self) -> dict:
        """JSON-ready accounting; every request is exactly one of
        completed / rejected / failed once the engine has drained."""
        tenants = {}
        total = {"offered": 0, "completed": 0, "goodput": 0, "failed": 0,
                 "rejected": 0}
        for spec in self.tenants:
            name = spec.name
            rejected = dict(sorted(self._rejected[name].items()))
            entry = {
                "offered": self._offered[name],
                "completed": self._completed[name],
                "goodput": self._goodput[name],
                "failed": self._failed[name],
                "rejected": rejected,
                "rejected_total": sum(rejected.values()),
                "rate": round(spec.rate * self.scale, 6),
                "weight": spec.weight,
                "deadline": spec.DEADLINE,
                "latency": self._quantiles(self._hist[name]),
            }
            tenants[name] = entry
            total["offered"] += entry["offered"]
            total["completed"] += entry["completed"]
            total["goodput"] += entry["goodput"]
            total["failed"] += entry["failed"]
            total["rejected"] += entry["rejected_total"]
        total["latency"] = self._quantiles(self._hist_all)
        total["goodput_rate"] = (
            round(total["goodput"] / total["offered"], 6)
            if total["offered"] else None)
        return {
            "seed": self.seed,
            "scale": self.scale,
            "duration": self.duration,
            "inflight": self.inflight,
            "deadline_max": max(spec.DEADLINE for spec in self.tenants),
            "tenants": dict(sorted(tenants.items())),
            "total": total,
        }
