"""Provision monitor — Rio's autonomic deployment controller.

One control loop per monitor: for every deployed operational string and
element, count the live instances visible through the lookup services
(liveness == an unexpired registration lease), and converge the network
toward the planned count — instantiating on the best QoS-eligible cybernode
(per the selection policy) when short, releasing extras when over. A
cybernode crash therefore heals automatically: the dead instances' leases
lapse, the count drops below plan, and the monitor re-provisions on a
surviving node — the paper's "fault tolerance achieved by dynamically
allocating the service to a different compute node" (§IV.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..jini.entries import Name
from ..jini.join import JoinManager, join_service
from ..jini.template import ServiceTemplate
from ..net.errors import NetworkError, RemoteError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from ..observability import metrics_registry, tracer_of
from ..sorcer.accessor import ServiceAccessor
from .opstring import Deployment, OperationalString, ServiceElement
from .selection import Candidate, LeastLoaded, SelectionPolicy

__all__ = ["ProvisionMonitor", "ProvisionRecord"]

CYBERNODE_TYPE = "Cybernode"


@dataclass
class ProvisionRecord:
    service_id: str
    opstring: str
    element: str
    instance_name: str
    cybernode: RemoteRef
    provisioned_at: float


class ProvisionMonitor:
    """The Rio 'Monitor' service of the paper's Fig 2 inventory."""

    REMOTE_TYPES = ("ProvisionMonitor",)
    REMOTE_METHODS = ("deploy", "undeploy", "set_planned")

    def __init__(self, host: Host, name: str = "Monitor",
                 policy: Optional[SelectionPolicy] = None,
                 poll_interval: float = 1.0):
        self.host = host
        self.env = host.env
        self.name = name
        self.policy = policy if policy is not None else LeastLoaded()
        self.poll_interval = poll_interval
        self.monitor_id = host.network.ids.uuid()
        self.accessor = ServiceAccessor(host)
        self._endpoint = rpc_endpoint(host)
        self._opstrings: dict[str, OperationalString] = {}
        self._records: dict[str, ProvisionRecord] = {}
        self.ref = self._endpoint.export(self, f"monitor:{self.monitor_id}",
                                         methods=self.REMOTE_METHODS)
        self._join: Optional[JoinManager] = None
        self.tracer = tracer_of(host.network)
        registry = metrics_registry(host.network)
        self._m_provisioned = registry.counter("monitor.provisioned",
                                               monitor=name)
        self._m_released = registry.counter("monitor.released", monitor=name)
        self._m_failures = registry.counter("monitor.provision_failures",
                                            monitor=name)
        #: Instances currently under management (the deployment's true size).
        self._m_managed = registry.gauge("monitor.managed", monitor=name)
        #: Planned instances the monitor could not provision — a persistent
        #: non-zero value means the federation is short on capacity (the
        #: health model degrades the federation on it).
        self._m_shortfall = registry.gauge("monitor.shortfall", monitor=name)
        self._shortfalls: dict[tuple, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ProvisionMonitor":
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.monitor_id,
                                      (Name(self.name),),
                                      lease_duration=10.0)
            self.env.process(self._control_loop(), name=f"monitor:{self.name}")
        return self

    # -- remote API -------------------------------------------------------------

    def deploy(self, opstring: OperationalString) -> str:
        if opstring.name in self._opstrings:
            raise ValueError(f"opstring {opstring.name!r} already deployed")
        self._opstrings[opstring.name] = opstring
        return opstring.name

    def undeploy(self, opstring_name: str) -> None:
        opstring = self._opstrings.pop(opstring_name, None)
        if opstring is None:
            raise KeyError(f"opstring {opstring_name!r} is not deployed")
        for key in [k for k in self._shortfalls if k[0] == opstring_name]:
            del self._shortfalls[key]
        self._m_shortfall.set(sum(self._shortfalls.values()))
        # Release everything we provisioned for it (async).
        for record in [r for r in self._records.values()
                       if r.opstring == opstring_name]:
            self.env.process(self._release(record), name="monitor-undeploy")

    def set_planned(self, opstring_name: str, element_name: str,
                    planned: int) -> None:
        if planned < 0:
            raise ValueError("planned must be >= 0")
        self._opstrings[opstring_name].element(element_name).planned = planned

    # -- control loop ----------------------------------------------------------------

    def _control_loop(self):
        while True:
            if self.host.up:
                for opstring in list(self._opstrings.values()):
                    for element in list(opstring.elements):
                        try:
                            yield from self._converge(opstring, element)
                        except Exception:  # repro: allow[SIM001] - control must survive
                            self._converge_failed()
            yield self.env.timeout(self.poll_interval)

    def _element_template(self, opstring: OperationalString,
                          element: ServiceElement) -> ServiceTemplate:
        return ServiceTemplate(attributes=(
            Deployment(opstring=opstring.name, element=element.name),))

    def _converge(self, opstring: OperationalString, element: ServiceElement):
        # Count live instances at the registrars, not from the lookup
        # cache: service events are sent once, and one lost departure
        # would hide a dead instance until the event lease lapsed.
        template = self._element_template(opstring, element)
        self.accessor.invalidate(template)
        live = yield from self.accessor.find_items(template, max_matches=64)
        live_ids = {item.service_id for item in live}
        # Prune stale records for instances that are gone.
        for service_id in [sid for sid, rec in self._records.items()
                           if rec.opstring == opstring.name
                           and rec.element == element.name
                           and sid not in live_ids]:
            del self._records[service_id]
        provisioned = 0
        if len(live) < element.planned:
            for _ in range(element.planned - len(live)):
                ok = yield from self._provision(opstring, element)
                if not ok:
                    break
                provisioned += 1
        elif len(live) > element.planned:
            extras = [self._records[sid] for sid in sorted(live_ids)
                      if sid in self._records][element.planned - len(live):]
            for record in extras:
                yield from self._release(record)
        shortfall = max(0, element.planned - len(live) - provisioned)
        self._shortfalls[(opstring.name, element.name)] = shortfall
        self._m_shortfall.set(sum(self._shortfalls.values()))

    def _next_instance_name(self, element: ServiceElement) -> str:
        """Smallest free instance name: a replacement for a dead single
        instance reuses its name (the network sees the same service come
        back, as Rio users expect)."""
        used = {record.instance_name for record in self._records.values()
                if record.element == element.name}
        index = 0
        while element.instance_name(index) in used:
            index += 1
        return element.instance_name(index)

    def _provision(self, opstring: OperationalString, element: ServiceElement):
        # Roots its own trace: the control loop has no requestor above it.
        with self.tracer.start_span(
                f"provision:{element.name}", kind="provision",
                host=self.host.name, opstring=opstring.name) as span:
            candidates = yield from self._eligible_cybernodes(element)
            while candidates:
                choice = self.policy.choose(candidates)
                if choice is None:
                    break
                instance_name = self._next_instance_name(element)
                try:
                    service_id = yield self._endpoint.call(
                        choice.ref, "instantiate", element, instance_name,
                        opstring.name, kind="rio-instantiate", timeout=10.0,
                        trace_parent=span.span_id)
                except (RemoteError, NetworkError):
                    span.annotate("cybernode_failed", node=choice.node_id)
                    candidates = [c for c in candidates if c is not choice]
                    continue
                self._records[service_id] = ProvisionRecord(
                    service_id=service_id, opstring=opstring.name,
                    element=element.name, instance_name=instance_name,
                    cybernode=choice.ref, provisioned_at=self.env.now)
                self._m_provisioned.inc()
                self._m_managed.set(len(self._records))
                span.set_attribute("instance", instance_name)
                span.end("ok")
                return True
            self._m_failures.inc()
            span.end("failed")
            return False

    def _converge_failed(self) -> None:
        self._m_failures.inc()

    def _release(self, record: ProvisionRecord):
        try:
            yield self._endpoint.call(record.cybernode, "release",
                                      record.service_id, kind="rio-release",
                                      timeout=10.0)
        except (RemoteError, NetworkError):
            pass
        self._records.pop(record.service_id, None)
        self._m_released.inc()
        self._m_managed.set(len(self._records))

    def _eligible_cybernodes(self, element: ServiceElement):
        template = ServiceTemplate.by_type(CYBERNODE_TYPE)
        self.accessor.invalidate(template)  # placement reads the registry
        items = yield from self.accessor.find_items(template, max_matches=64)
        candidates: list[Candidate] = []
        for item in items:
            try:
                status = yield self._endpoint.call(item.service, "status",
                                                   kind="rio-status", timeout=3.0)
            except (RemoteError, NetworkError):
                continue
            if element.qos.satisfied_by_status(status):
                candidates.append(Candidate(
                    ref=item.service, node_id=status.node_id,
                    compute_slots=status.compute_slots,
                    used_slots=status.used_slots))
        return candidates
