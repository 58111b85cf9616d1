"""The lookup service (LUS) — Jini's service registry.

Providers register :class:`~repro.jini.template.ServiceItem`s under leases;
requestors look up by :class:`~repro.jini.template.ServiceTemplate`;
interested parties register event listeners that are told when services
arrive, leave or change. The LUS answers discovery probes and multicasts
periodic announcements.

Crash semantics: LUS state is in-memory, so a host crash wipes the registry
(as a JVM death would). When the host recovers the LUS resumes announcing
empty; join managers re-register on rediscovery — this is the self-healing
behaviour the paper relies on (§VII "plug-and-play").
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..net.host import Host
from ..net.message import Message
from ..net.rpc import RemoteRef, rpc_endpoint
from .discovery import (ANNOUNCE_PORT, DISCOVERY_GROUP, PROBE_PORT,
                        PUBLIC_GROUPS)
from .events import (
    EventRegistration,
    ServiceEvent,
    TRANSITION_MATCH_MATCH,
    TRANSITION_MATCH_NOMATCH,
    TRANSITION_NOMATCH_MATCH,
    push_event,
)
from .lease import Landlord, Lease
from .template import ServiceItem, ServiceTemplate

__all__ = ["LookupService", "ServiceRegistration"]


class ServiceRegistration:
    """Returned by :meth:`LookupService.register`."""

    def __init__(self, service_id: str, lease: Lease, lus_id: str):
        self.service_id = service_id
        self.lease = lease
        self.lus_id = lus_id


class _Interest:
    """One event registration: template + transitions + listener."""

    __slots__ = ("event_id", "template", "transitions", "listener",
                 "handback", "sequence")

    def __init__(self, event_id: int, template: ServiceTemplate,
                 transitions: int, listener: RemoteRef, handback: Any):
        self.event_id = event_id
        self.template = template
        self.transitions = transitions
        self.listener = listener
        self.handback = handback
        self.sequence = 0


class LookupService:
    """A lookup service living on one simulated host."""

    REMOTE_TYPES = ("ServiceRegistrar",)

    #: Remote methods callable through the proxy.
    REMOTE_METHODS = ("register", "renew_lease", "cancel_lease", "lookup",
                      "lookup_all", "notify", "registrations")

    MAX_LEASE = 300.0  # seconds
    SWEEP_INTERVAL = 1.0

    def __init__(self, host: Host, name: str = "Lookup Service",
                 announce_interval: float = 10.0):
        self.host = host
        self.env = host.env
        self.name = name
        self.lus_id = host.network.ids.uuid()
        #: Bumped by each crash: the registry and every event interest died
        #: with it, so discovery must treat the recovered LUS as new.
        self.incarnation = 0
        self.announce_interval = announce_interval
        self._items: dict[str, ServiceItem] = {}
        self._interests: dict[int, _Interest] = {}
        # One landlord, resources tagged ("reg", service_id) / ("event", event_id).
        self._landlord = Landlord(host.env, max_duration=self.MAX_LEASE,
                                  on_expire=self._on_lease_expired)
        endpoint = rpc_endpoint(host)
        self.ref = endpoint.export(self, f"lus:{self.lus_id}",
                                   methods=self.REMOTE_METHODS)
        self._started = False
        host.on_fail(self._on_host_fail)
        host.env.register_state(f"jini.lus.{self.lus_id}",
                                self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: registry contents, interests, lease table."""
        return {
            "host": self.host.name,
            "interests": [{
                "event_id": interest.event_id,
                "sequence": interest.sequence,
                "transitions": interest.transitions,
            } for _, interest in sorted(self._interests.items())],
            "items": {service_id: item.name()
                      for service_id, item in sorted(self._items.items())},
            "landlord": self._landlord.checkpoint_state(),
            "lease_of_service": {
                service_id: self._landlord.lease_of(("reg", service_id)).lease_id
                for service_id in sorted(self._items)},
            "name": self.name,
            "started": self._started,
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        # Announce ourselves to the management plane: the health monitor
        # derives liveness from whichever LUSs the network runs.
        self.host.network.shared.setdefault("lookup_services", []).append(self)
        self.host.join_group(DISCOVERY_GROUP)
        self.host.open_port(PROBE_PORT, self._on_probe)
        self.env.process(self._landlord.sweeper(self.SWEEP_INTERVAL),
                         name=f"lus-sweep:{self.lus_id[:8]}")
        self.env.process(self._announcer(), name=f"lus-announce:{self.lus_id[:8]}")

    def expire_registrations(self, name: Optional[str] = None) -> int:
        """Admin/chaos hook: lapse the lease of every registration whose
        service name matches ``name`` (all of them when ``None``). The
        sweeper then reaps them exactly like missed renewals — the holder
        sees ``UnknownLeaseError`` on its next renew and re-registers.
        Returns the number of leases lapsed."""
        count = 0
        for item, lease in self.leased_items():
            if name is None or item.name() == name:
                count += self._landlord.force_expire(lease.lease_id)
        return count

    def _announce_payload(self):
        return (self.lus_id, self.ref, PUBLIC_GROUPS, self.incarnation)

    def _announcer(self):
        while True:
            if self.host.up:
                self.host.multicast(DISCOVERY_GROUP, ANNOUNCE_PORT,
                                    kind="discovery-announce",
                                    payload=self._announce_payload())
            yield self.env.timeout(self.announce_interval)

    def _on_probe(self, msg: Message) -> None:
        requester, _groups = msg.payload
        if self.host.up:
            self.host.send(requester, ANNOUNCE_PORT, kind="discovery-announce",
                           payload=self._announce_payload())

    def _on_host_fail(self, host: Host) -> None:
        # In-memory registry dies with the process.
        self.incarnation += 1
        self._items.clear()
        self._interests.clear()
        self._landlord.clear()

    # -- remote API -------------------------------------------------------------

    def register(self, item: ServiceItem, lease_duration: float) -> ServiceRegistration:
        """Register (or re-register) a service item."""
        if not item.service_id:
            raise ValueError("ServiceItem.service_id must be set")
        previous = self._items.get(item.service_id)
        # Replace any existing lease for this service.
        old_lease = self._landlord.lease_of(("reg", item.service_id))
        if old_lease is not None:
            self._landlord.cancel(old_lease.lease_id)
        lease = self._landlord.grant(("reg", item.service_id), lease_duration)
        self._items[item.service_id] = item
        self._fire_transitions(previous, item)
        return ServiceRegistration(item.service_id, lease, self.lus_id)

    def renew_lease(self, lease_id: int, duration: float) -> Lease:
        return self._landlord.renew(lease_id, duration)

    def cancel_lease(self, lease_id: int) -> None:
        resource = self._landlord.cancel(lease_id)
        self._release_resource(resource, expired=False)

    def lookup(self, template: ServiceTemplate,
               max_matches: int = 1) -> list[ServiceItem]:
        """Return up to ``max_matches`` matching items (registration order)."""
        if template.service_id is not None:
            # Exact-id template: the item table is keyed by service id, so
            # answer from the index. This is the resolver hot path — every
            # composite child resolution names its child's exact id, and a
            # registry scan here makes one fleet query O(N * children).
            item = self._items.get(template.service_id)
            if item is not None and template.matches(item):
                return [item]
            return []
        out = []
        for item in self._items.values():
            if template.matches(item):
                out.append(item)
                if len(out) >= max_matches:
                    break
        return out

    def lookup_all(self) -> list[ServiceItem]:
        return list(self._items.values())

    def leased_items(self) -> Iterator[tuple]:
        """Local read view: ``(item, lease)`` per registration, in
        registration order. ``lease`` is the landlord's record of the
        registration's lease (see :meth:`Landlord.lease_of`), so a
        registration that lapsed but has not been swept yet still shows."""
        lease_of = self._landlord.lease_of
        for service_id, item in self._items.items():
            yield item, lease_of(("reg", service_id))

    def registrations(self) -> list[dict]:
        """Admin view: every registration with its lease state (the data
        behind the Inca X Admin tab of the paper's Fig 2)."""
        return [{
            "service_id": item.service_id,
            "name": item.name(),
            "host": item.service.host,
            "lease_expires_at": lease.expiration,
            "lease_remaining": max(0.0, lease.expiration - self.env.now),
            "lease_duration": lease.duration,
        } for item, lease in self.leased_items()]

    def notify(self, template: ServiceTemplate, transitions: int,
               listener: RemoteRef, handback: Any = None,
               lease_duration: float = 300.0) -> EventRegistration:
        """Register interest in service transitions w.r.t. ``template``."""
        event_id = self.host.network.ids.sequence()
        interest = _Interest(event_id, template, transitions, listener, handback)
        self._interests[event_id] = interest
        lease = self._landlord.grant(("event", event_id), lease_duration)
        return EventRegistration(event_id=event_id, source=self.lus_id, lease=lease)

    # -- internals ------------------------------------------------------------------

    def _on_lease_expired(self, resource) -> None:
        self._release_resource(resource, expired=True)

    def _release_resource(self, resource, expired: bool) -> None:
        kind, key = resource
        if kind == "reg":
            item = self._items.pop(key, None)
            if item is not None:
                # Expiry means the holder went silent (crash/partition);
                # cancellation is a graceful goodbye. The health model
                # treats the two very differently, so say which it was.
                from ..resilience.events import resilience_events
                resilience_events(self.host.network).emit(
                    "lease_expired" if expired else "service_deregistered",
                    service=item.name() or key[:8], service_id=key,
                    host=item.service.host, lus=self.lus_id)
                self._fire_transitions(item, None)
        elif kind == "event":
            self._interests.pop(key, None)

    def _fire_transitions(self, before: Optional[ServiceItem],
                          after: Optional[ServiceItem]) -> None:
        # Interests fire in registration order (insertion-ordered dict).
        for interest in list(  # repro: allow[DET003]
                self._interests.values()):
            was = before is not None and interest.template.matches(before)
            now = after is not None and interest.template.matches(after)
            if was and not now:
                transition = TRANSITION_MATCH_NOMATCH
            elif not was and now:
                transition = TRANSITION_NOMATCH_MATCH
            elif was and now:
                transition = TRANSITION_MATCH_MATCH
            else:
                continue
            if not (interest.transitions & transition):
                continue
            interest.sequence += 1
            service_id = (after or before).service_id
            event = ServiceEvent(
                source=self.lus_id, event_id=interest.event_id,
                sequence=interest.sequence, handback=interest.handback,
                service_id=service_id, transition=transition, item=after)
            push_event(self.host, interest.listener, event,
                       kind="service-event")
