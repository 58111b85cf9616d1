"""Join manager — keeps a service registered with every discovered LUS.

The provider-side half of Jini's discovery/join: register with each newly
discovered registrar, renew leases before they lapse, re-register after a
LUS restart (its in-memory registry is gone, so a renew fails and we fall
back to a fresh register), and cancel everything on graceful termination.

This is what gives SenSORCER services their "come and go" plug-and-play
behaviour: a crashed sensor service simply stops renewing and the network
forgets it; a started one becomes visible within a probe round-trip.
"""

from __future__ import annotations

from typing import Iterable

from ..net.errors import NetworkError, RemoteError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .discovery import LookupDiscovery, lookup_discovery
from .entries import Entry
from .lease import Lease
from .template import ServiceItem

__all__ = ["JoinManager", "join_service"]


class _Registration:
    def __init__(self, lus_ref: RemoteRef, lease: Lease):
        self.lus_ref = lus_ref
        self.lease = lease


class JoinManager:
    """Maintains registrations of one service item across all LUSs."""

    #: Seconds between passes that register, renew and re-register.
    MAINTENANCE_INTERVAL = 2.0

    def __init__(self, host: Host, item: ServiceItem,
                 lease_duration: float = 30.0):
        if not item.service_id:
            raise ValueError("service item needs a service_id before joining")
        self.host = host
        self.env = host.env
        self.item = item
        self.lease_duration = lease_duration
        self.discovery: LookupDiscovery = lookup_discovery(host)
        self._endpoint = rpc_endpoint(host)
        self._registrations: dict[str, _Registration] = {}
        self._active = False
        self._proc = None

    # -- public API -------------------------------------------------------------

    @property
    def registered_with(self) -> list[str]:
        """LUS ids this service currently holds a live lease on."""
        return [lus_id for lus_id, reg in self._registrations.items()
                if not reg.lease.is_expired(self.env.now)]

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self.discovery.on_discovered(self._on_discovered)
        self.discovery.on_discarded(self._on_discarded)
        self._proc = self.env.process(self._maintain(),
                                      name=f"join:{self.item.service_id[:8]}")

    def terminate(self):
        """Gracefully leave the network: cancel all leases (best effort).

        A generator — run it as a process: ``yield env.process(jm.terminate())``.
        """
        self._active = False
        # Cancellation goes out in registration order (insertion-ordered dict).
        for lus_id, reg in list(  # repro: allow[DET003]
                self._registrations.items()):
            try:
                yield self._endpoint.call(reg.lus_ref, "cancel_lease",
                                          reg.lease.lease_id, timeout=2.0)
            except NetworkError:
                pass
        self._registrations.clear()

    def update_attributes(self, attributes) -> None:
        """Replace the item's attribute set and push it to every LUS as a
        re-registration (observers see a MATCH_MATCH event)."""
        self.item = self.item.with_attributes(attributes)
        # Re-registration in registration order (insertion-ordered dict).
        for lus_id, reg in list(  # repro: allow[DET003]
                self._registrations.items()):
            self._registrations.pop(lus_id, None)
            self.env.process(self._register(lus_id, reg.lus_ref),
                             name=f"join-update:{self.item.service_id[:8]}")

    # -- internals ------------------------------------------------------------------

    def _on_discovered(self, lus_id: str, ref: RemoteRef) -> None:
        if self._active and lus_id not in self._registrations:
            self.env.process(self._register(lus_id, ref),
                             name=f"join-register:{self.item.service_id[:8]}")

    def _on_discarded(self, lus_id: str) -> None:
        self._registrations.pop(lus_id, None)

    def _register(self, lus_id: str, ref: RemoteRef):
        if not self.host.up or not self._active:
            return
        try:
            registration = yield self._endpoint.call(
                ref, "register", self.item, self.lease_duration, timeout=3.0)
        except RemoteError:
            return  # registrar rejected us; don't discard a live LUS
        except NetworkError:
            self.discovery.discard(lus_id)
            return
        if self._active:
            self._registrations[lus_id] = _Registration(ref, registration.lease)

    def _maintain(self):
        while self._active:
            if self.host.up:
                yield from self._round()
            yield self.env.timeout(self.MAINTENANCE_INTERVAL)

    def _round(self):
        # Register with any registrar we somehow missed the callback for,
        # in discovery order (insertion-ordered dict).
        for lus_id, ref in list(  # repro: allow[DET003]
                self.discovery.registrars.items()):
            if not self._active:
                return
            if lus_id not in self._registrations:
                yield from self._register(lus_id, ref)
        # Renew leases past the halfway point; re-register if the LUS
        # forgot us (restart or expiry). Registration order (insertion-
        # ordered dict) is the deterministic renewal order.
        for lus_id, reg in list(  # repro: allow[DET003]
                self._registrations.items()):
            if not self._active:
                return
            remaining = reg.lease.remaining(self.env.now)
            if remaining > reg.lease.duration / 2:
                continue
            try:
                new_lease = yield self._endpoint.call(
                    reg.lus_ref, "renew_lease", reg.lease.lease_id,
                    self.lease_duration, timeout=3.0)
                reg.lease = new_lease
            except RemoteError:
                # UnknownLeaseError on the LUS side: it forgot us (restart or
                # expiry) — fall back to a fresh registration.
                self._registrations.pop(lus_id, None)
                yield from self._register(lus_id, reg.lus_ref)
            except NetworkError:
                self._registrations.pop(lus_id, None)
                self.discovery.discard(lus_id)


def join_service(host: Host, ref: RemoteRef, service_id: str,
                 attributes: Iterable[Entry],
                 lease_duration: float = 30.0) -> JoinManager:
    """Register an exported object with all lookup services and keep it
    registered: the one way a service joins the network, whether it is an
    exertion provider or an infrastructure service (transaction manager,
    mailbox, exertion space — the Fig 2 service inventory).
    """
    item = ServiceItem(service_id=service_id, service=ref,
                       attributes=tuple(attributes))
    manager = JoinManager(host, item, lease_duration=lease_duration)
    manager.start()
    return manager
