"""Network health model — UP/DEGRADED/DOWN per provider, node, federation.

The paper's Sensor Browser exists so an operator can see whether the
federation is healthy; PR 2 gave us the raw signals (spans, counters,
resilience events) and this module turns them into that judgement. One
:class:`HealthMonitor` runs per network (``health_monitor(net)``, like
``tracer_of``): every ``INTERVAL`` simulated seconds it

1. asks the :class:`HealthModel` to re-derive each entity's status and
   publish it as ``health.status{entity=...}`` gauges (0=UP, 1=DEGRADED,
   2=DOWN);
2. rolls the metrics registry — including those fresh gauges — into the
   :class:`~repro.observability.timeseries.TimeSeriesStore`;
3. lets the :class:`~repro.observability.slo.SloEngine` evaluate its rules
   over the rollups and emit alerts.

Status derivation (see DESIGN §4e for the full table): a provider is DOWN
when its host is down or its registration lease expired; DEGRADED when its
lease is at risk (renewals overdue past ``AT_RISK_FRACTION`` of the lease),
a circuit breaker on it is open/half-open, or its windowed failure rate
breaches the threshold; UP otherwise. Nodes aggregate their providers plus
host-local RPC-timeout rates; the federation aggregates nodes plus
network-wide deadline-miss / exertion-error rates and provisioning
shortfall. Liveness is *lease-renewal* liveness, exactly the signal the
paper credits for keeping the network "healthy and robust" (§IV.B).

Everything here reads simulation state in-process (LUS lease tables,
breaker registries, host flags) — the management plane's privileged view,
deterministic and free of network traffic, like the tracer.
"""

from __future__ import annotations

from typing import Optional

from .registry import metrics_registry
from .slo import Slo, SloEngine
from .timeseries import TimeSeriesStore

__all__ = ["UP", "DEGRADED", "DOWN", "HealthModel", "HealthMonitor",
           "default_slos", "health_monitor", "overload_slos"]

UP = "UP"
DEGRADED = "DEGRADED"
DOWN = "DOWN"

#: Gauge encoding of a status (the SLO engine alerts on these).
STATUS_VALUE = {UP: 0.0, DEGRADED: 1.0, DOWN: 2.0}

# Reason codes (stable strings — they appear in snapshots and goldens).
R_HOST_DOWN = "host-down"
R_LEASE_EXPIRED = "lease-expired"
R_LEASE_AT_RISK = "lease-at-risk"
R_BREAKER_OPEN = "breaker-open"
R_ERROR_RATE = "error-rate"
R_RPC_TIMEOUTS = "rpc-timeouts"
R_PROVIDERS_DOWN = "providers-down"
R_PROVIDERS_DEGRADED = "providers-degraded"
R_NODES_DOWN = "nodes-down"
R_NODES_DEGRADED = "nodes-degraded"
R_DEADLINE_MISSES = "deadline-misses"
R_EXERTION_ERRORS = "exertion-errors"
R_PROVISION_SHORTFALL = "provision-shortfall"


class _TrackedProvider:
    """What the model remembers about one logical provider (keyed by name,
    so a re-provisioned replacement with a fresh service id is recognized
    as the same service coming back — Rio semantics)."""

    __slots__ = ("name", "node", "kind", "service_id", "expired", "at_risk")

    def __init__(self, name: str, node: str, kind: str, service_id: str):
        self.name = name
        self.node = node
        self.kind = kind
        self.service_id = service_id
        self.expired = False  # its lease lapsed (vs. graceful departure)
        self.at_risk = 0      # consecutive evaluations with a thin lease


class HealthModel:
    """Derives entity statuses from lease, breaker and rollup state."""

    AT_RISK_FRACTION = 0.4  # a lease is thin with less than this left
    #: A lease must look thin this many consecutive evaluations before
    #: it degrades the provider — a healthy renewal cycle can briefly
    #: dip below the fraction (renewal fires at the halfway point, one
    #: maintenance round late at worst) and that is not a health event.
    AT_RISK_TICKS = 2
    ERROR_RATE_THRESHOLD = 0.5  # windowed events/s that degrade an entity
    DEADLINE_RATE_THRESHOLD = 0.5
    #: Rollup windows each windowed rate is averaged over.
    WINDOW = 3

    def __init__(self, network, store: TimeSeriesStore):
        self.network = network
        self.store = store
        self.registry = metrics_registry(network)
        #: Started LUSs announce themselves on this list, in start order.
        self._luses: list = network.shared.setdefault("lookup_services", [])
        self._providers: dict[str, _TrackedProvider] = {}
        #: Names seen live on more than one host at once (two cybernodes
        #: both called "Cybernode"): such entities are keyed ``name@host``,
        #: stickily, so each keeps its own status history. Unambiguous
        #: names stay plain, which is what lets a re-provisioned service
        #: (same name, fresh id, maybe another host) remain one entity.
        self._ambiguous: set = set()
        self._status: dict[str, str] = {}
        #: Ordered, sim-stamped status changes: dicts with t/entity/from/to/reasons.
        self.transitions: list[dict] = []
        self._m_transitions = self.registry.counter("health.transitions")
        #: entity -> its health.status gauge; resolving through the
        #: registry costs a key format + dict probe per entity per tick.
        self._status_gauges: dict[str, object] = {}
        self._last: Optional[dict] = None

    # -- wiring ---------------------------------------------------------------

    def on_event(self, kind: str, fields: dict) -> None:
        """Resilience-event hook: lease expiry marks the provider for an
        immediate DOWN at the next evaluation; graceful deregistration
        makes the model forget the provider instead."""
        name = fields.get("service")
        if not name:
            return
        key = name
        if key not in self._providers:
            key = f"{name}@{fields.get('host')}"
        tracked = self._providers.get(key)
        if tracked is None:
            return
        if kind == "lease_expired":
            tracked.expired = True
        elif kind == "service_deregistered":
            del self._providers[key]
            self._status.pop(f"provider:{key}", None)

    # -- derivation -----------------------------------------------------------

    def _kind_of(self, item) -> str:
        for attr in item.attributes:
            service_kind = getattr(attr, "service_kind", None)
            if service_kind:
                return service_kind
        for type_name in item.service.type_names:
            if type_name != "Servicer":
                return type_name
        return "service"

    def _live_registrations(self) -> dict:
        """key -> (item, lease_remaining, lease_duration) over all LUSs."""
        raw = []
        for lus in self._luses:
            if not lus.host.up:
                continue  # its in-memory table died with the host
            for item, lease in lus.leased_items():
                remaining = max(0.0, lease.expiration - lus.env.now)
                duration = lease.duration or remaining
                raw.append((item.name() or item.service_id[:8], item,
                            remaining, duration))
        hosts_of: dict[str, set] = {}
        for name, item, _remaining, _duration in raw:
            hosts_of.setdefault(name, set()).add(item.service.host)
        self._ambiguous.update(name for name, hosts in hosts_of.items()
                               if len(hosts) > 1)
        live: dict[str, tuple] = {}
        for name, item, remaining, duration in raw:
            key = (f"{name}@{item.service.host}"
                   if name in self._ambiguous else name)
            previous = live.get(key)
            # Registered with several LUSs: judge by the healthiest lease.
            if previous is None or remaining > previous[1]:
                live[key] = (item, remaining, duration)
        return live

    def _breaker_states(self) -> dict:
        """service_id -> worst breaker state name across all caller hosts."""
        order = {"closed": 0, "half_open": 1, "open": 2}
        worst: dict[str, str] = {}
        for host in self.network.hosts.values():
            breakers = host.shared.get("breaker_registry")
            if breakers is None:
                continue
            for key, state in breakers.snapshot().items():
                if order[state] > order.get(worst.get(key, "closed"), 0):
                    worst[key] = state
        return worst

    def _provider_status(self, tracked: _TrackedProvider,
                         live: dict, breakers: dict) -> tuple:
        host = self.network.hosts.get(tracked.node)
        if host is not None and not host.up:
            return DOWN, (R_HOST_DOWN,)
        entry = live.get(tracked.name)
        if entry is None:
            return DOWN, (R_LEASE_EXPIRED,)
        tracked.expired = False  # visible again: any expiry mark is stale
        reasons = []
        _item, remaining, duration = entry
        if duration > 0 and remaining / duration < self.AT_RISK_FRACTION:
            tracked.at_risk += 1
        else:
            tracked.at_risk = 0
        if tracked.at_risk >= self.AT_RISK_TICKS:
            reasons.append(R_LEASE_AT_RISK)
        if breakers.get(tracked.service_id) in ("open", "half_open"):
            reasons.append(R_BREAKER_OPEN)
        failed = self.store.rate(
            f"provider.failed{{provider={tracked.name}}}", self.WINDOW)
        if failed > self.ERROR_RATE_THRESHOLD:
            reasons.append(R_ERROR_RATE)
        return (DEGRADED, tuple(reasons)) if reasons else (UP, ())

    def _node_status(self, node: str, statuses: list) -> tuple:
        host = self.network.hosts.get(node)
        if host is not None and not host.up:
            return DOWN, (R_HOST_DOWN,)
        if statuses and all(status == DOWN for status in statuses):
            # Every lease the node held lapsed: from the federation's point
            # of view the node is gone, whatever its host flag says.
            return DOWN, (R_PROVIDERS_DOWN,)
        reasons = []
        if any(status != UP for status in statuses):
            reasons.append(R_PROVIDERS_DEGRADED)
        if self.store.rate(f"rpc.timeouts{{host={node}}}", self.WINDOW) > 0:
            reasons.append(R_RPC_TIMEOUTS)
        return (DEGRADED, tuple(reasons)) if reasons else (UP, ())

    def _federation_status(self, statuses: list) -> tuple:
        if statuses and all(status == DOWN for status in statuses):
            return DOWN, (R_NODES_DOWN,)
        reasons = []
        if any(status == DOWN for status in statuses):
            reasons.append(R_NODES_DOWN)
        elif any(status == DEGRADED for status in statuses):
            reasons.append(R_NODES_DEGRADED)
        if (self.store.sum_rate("resilience.deadline_exceeded", self.WINDOW)
                > self.DEADLINE_RATE_THRESHOLD):
            reasons.append(R_DEADLINE_MISSES)
        if (self.store.sum_rate("exertion.failures", self.WINDOW)
                > self.ERROR_RATE_THRESHOLD):
            reasons.append(R_EXERTION_ERRORS)
        shortfall = sum(
            self.store.value(key) or 0.0
            for key in self.store.names("monitor.shortfall"))
        if shortfall > 0:
            reasons.append(R_PROVISION_SHORTFALL)
        return (DEGRADED, tuple(reasons)) if reasons else (UP, ())

    # -- evaluation -----------------------------------------------------------

    def _set_status(self, now: float, entity: str, status: str,
                    reasons: tuple) -> None:
        previous = self._status.get(entity)
        if previous == status:
            return  # the status gauge already holds this value
        self.transitions.append({
            "t": now, "entity": entity,
            "from": previous or "UNKNOWN", "to": status,
            "reasons": list(reasons)})
        self._m_transitions.inc()
        self._status[entity] = status
        gauge = self._status_gauges.get(entity)
        if gauge is None:
            gauge = self.registry.gauge("health.status", entity=entity)
            self._status_gauges[entity] = gauge
        gauge.set(STATUS_VALUE[status])

    def evaluate(self, now: float) -> dict:
        """Re-derive every entity's status; returns the full snapshot."""
        live = self._live_registrations()
        breakers = self._breaker_states()
        # A name that just turned ambiguous retires its plain-keyed entity
        # (its qualified successors take over; no phantom DOWN).
        for stale in [key for key in self._providers
                      if "@" not in key and key in self._ambiguous]:
            del self._providers[stale]
            self._status.pop(f"provider:{stale}", None)
        for key, (item, _remaining, _duration) in live.items():
            tracked = self._providers.get(key)
            if tracked is None:
                tracked = _TrackedProvider(key, item.service.host,
                                           self._kind_of(item),
                                           item.service_id)
                self._providers[key] = tracked
            else:  # a replacement instance may live elsewhere now
                tracked.node = item.service.host
                tracked.service_id = item.service_id

        # Per-tick state is deliberately lean — tuples, not the snapshot's
        # rich dicts (those are assembled on demand in snapshot(); building
        # them every simulated second was measurable management overhead).
        providers: dict[str, tuple] = {}
        by_node: dict[str, list] = {}
        for name in sorted(self._providers):
            tracked = self._providers[name]
            status, reasons = self._provider_status(tracked, live, breakers)
            entry = live.get(name)
            providers[name] = (status, reasons, tracked.node, tracked.kind,
                               entry[1] if entry is not None else None)
            by_node.setdefault(tracked.node, []).append(status)
            self._set_status(now, f"provider:{name}", status, reasons)

        lus_nodes = {lus.host.name for lus in self._luses}
        nodes: dict[str, tuple] = {}
        for node in sorted(set(by_node) | lus_nodes):
            status, reasons = self._node_status(node, by_node.get(node, []))
            nodes[node] = (status, reasons)
            self._set_status(now, f"node:{node}", status, reasons)

        status, reasons = self._federation_status(
            [state for state, _reasons in nodes.values()])
        self._set_status(now, "federation", status, reasons)

        self._last = {"t": now, "federation": (status, reasons),
                      "nodes": nodes, "providers": providers}
        return self._last

    def status_of(self, entity: str) -> str:
        """Last derived status of ``entity`` (``provider:Name``,
        ``node:host`` or ``federation``); UNKNOWN before first evaluation."""
        return self._status.get(entity, "UNKNOWN")

    def statuses(self) -> dict:
        """Last derived status of every tracked entity."""
        return dict(self._status)

    @property
    def evaluated_at(self) -> Optional[float]:
        """Simulated time of the last evaluation (``None`` before one)."""
        return None if self._last is None else self._last["t"]

    def snapshot(self) -> dict:
        """The rich, JSON-ready view of the last evaluation."""
        if self._last is None:
            return {
                "t": None, "federation": {"status": "UNKNOWN", "reasons": [],
                                          "nodes": 0, "providers": 0,
                                          "down": 0, "degraded": 0},
                "nodes": {}, "providers": {}}
        last = self._last
        providers = {
            name: {
                "status": status, "reasons": list(reasons),
                "node": node, "kind": kind,
                "lease_remaining": (round(remaining, 3)
                                    if remaining is not None else None),
            }
            for name, (status, reasons, node, kind, remaining)
            in last["providers"].items()}
        nodes = {
            node: {
                "status": status, "reasons": list(reasons),
                "providers": sorted(
                    name for name, record in providers.items()
                    if record["node"] == node),
            }
            for node, (status, reasons) in last["nodes"].items()}
        fed_status, fed_reasons = last["federation"]
        counts = [record["status"] for record in providers.values()]
        federation = {
            "status": fed_status, "reasons": list(fed_reasons),
            "nodes": len(nodes), "providers": len(providers),
            "down": sum(1 for s in counts if s == DOWN),
            "degraded": sum(1 for s in counts if s == DEGRADED),
        }
        return {"t": last["t"], "federation": federation, "nodes": nodes,
                "providers": providers}


#: Scheduler stats republished as registry instruments each beat.
#: Monotone operation totals become counters (windowed delta/rate in the
#: rollups and the spilled history); level signals become gauges. They
#: describe the substrate, so they feed dashboards, ``repro trace
#: --metrics`` and the history spill — never ``status --json`` or chaos
#: verdicts (DESIGN §12).
_KERNEL_COUNTERS = ("pushes", "pops", "cancels")
_KERNEL_GAUGES = ("pending",)


class HealthMonitor:
    """The per-network driver: model + store + SLO engine on one clock."""

    #: Seconds between rollups: one per time-series window.
    INTERVAL = TimeSeriesStore.INTERVAL

    def __init__(self, network):
        self.network = network
        self.env = network.env
        self.store = TimeSeriesStore(metrics_registry(network))
        self.model = HealthModel(network, self.store)
        self.engine = SloEngine(self.store)
        registry = self.store.registry
        self._kernel_counters = [
            (name, registry.counter(f"kernel.scheduler.{name}"))
            for name in _KERNEL_COUNTERS]
        self._kernel_gauges = [
            (name, registry.gauge(f"kernel.scheduler.{name}"))
            for name in _KERNEL_GAUGES]
        #: Rollups run unless disabled (overhead ablations flip this off).
        self.enabled = True
        from ..resilience.events import resilience_events
        resilience_events(network).subscribe(self._on_event)
        self.env.process(self._loop(), name="health-monitor")
        self.env.register_state("health", self.snapshot)

    def _on_event(self, kind: str, fields: dict) -> None:
        self.model.on_event(kind, fields)

    def _loop(self):
        from ..sim import LOW
        while True:
            # LOW priority: the management plane observes an instant only
            # after the data plane settles it. Without this the beat races
            # same-timestamp peers (the lease sweeper also runs on integer
            # seconds) and tie-break shuffling flips which tick first sees
            # an expiry — a one-window wobble in transition timestamps.
            yield self.env.timeout(self.INTERVAL, priority=LOW)
            if not self.enabled:
                continue
            self.tick(self.env.now)

    def tick(self, now: float) -> None:
        """One management-plane beat: derive health, publish kernel stats,
        roll windows, judge SLOs. Public so tests can step the plane
        without the clock."""
        self.model.evaluate(now)
        self._publish_kernel_stats()
        self.store.collect(now)
        self.engine.evaluate(now)

    def _publish_kernel_stats(self) -> None:
        """Mirror the scheduler's internals into ``kernel.scheduler.*``
        instruments so they roll into windows and the spilled history."""
        stats = self.env.scheduler_stats()
        for name, counter in self._kernel_counters:
            if stats[name] > counter.value:
                counter.inc(stats[name] - counter.value)
        for name, gauge in self._kernel_gauges:
            gauge.set(stats[name])

    def snapshot(self) -> dict:
        """The full operator view (plain data, JSON-serializable)."""
        out = dict(self.model.snapshot())
        out.update(self.engine.snapshot())
        out["transitions"] = list(self.model.transitions)
        return out


def default_slos() -> list:
    """The stock rule set a SenSORCER deployment starts with.

    ``federation-health`` alerts on the *derived* status gauge, so any
    condition severe enough to take the federation DOWN pages within one
    evaluation window of the health model seeing it (lease expiry of the
    last provider on a node, every node dark, ...). The rate rules watch
    the raw failure signals with a two-window hysteresis.
    """
    return [
        Slo("federation-health", "health.status{entity=federation}", 1.0,
            kind="value", window=1, for_windows=1,
            description="federation must not be DOWN"),
        Slo("exertion-failure-rate", "exertion.failures", 0.5,
            window=3, for_windows=2,
            description="network-wide exertion failures per second"),
        Slo("deadline-miss-rate", "resilience.deadline_exceeded", 0.5,
            window=3, for_windows=2,
            description="exertions blowing their deadline budget"),
        Slo("rpc-timeout-rate", "rpc.timeouts", 1.0,
            window=3, for_windows=2,
            description="network-wide RPC timeouts per second"),
    ]


def overload_slos() -> list:
    """SLOs for labs running an overload-control plane (installed by the
    load scenario, *not* part of :func:`default_slos` — a lab without
    admission control has no shed signal to watch).

    Shedding is the control plane working as designed; *sustained*
    shedding above 5/s means offered load persistently exceeds
    provisioned capacity and someone should add capacity or fix a tenant.
    """
    return [
        Slo("overload-shed-rate", "overload.rejected", 5.0,
            window=3, for_windows=2,
            description="requests shed by admission control per second"),
    ]


def health_monitor(network) -> HealthMonitor:
    """The network's shared health monitor (created on first use)."""
    monitor = network.shared.get("health_monitor")
    if monitor is None:
        monitor = network.shared["health_monitor"] = HealthMonitor(network)
    return monitor
