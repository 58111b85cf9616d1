"""Event mailbox service — store-and-forward for distributed events.

A client that cannot (or does not want to) stay reachable registers a
mailbox; the mailbox exports a per-registration listener proxy the client
hands to event sources (e.g. the LUS). Events pile up until the client
either pulls them (:meth:`EventMailbox.collect`) or enables push delivery to
a real listener. One of the Jini infrastructure services visible in the
paper's Fig 2 inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .events import RemoteEvent
from .lease import Landlord, Lease

__all__ = ["EventMailbox", "MailboxRegistration"]


@dataclass
class MailboxRegistration:
    registration_id: str
    listener: RemoteRef     # hand this to event sources
    lease: Lease


class _MailboxSlot:
    """Per-registration listener object exported by the mailbox."""

    REMOTE_TYPES = ("RemoteEventListener",)

    def __init__(self, mailbox: "EventMailbox", registration_id: str):
        self._mailbox = mailbox
        self._registration_id = registration_id

    def notify(self, event: RemoteEvent) -> None:
        self._mailbox._store(self._registration_id, event)


class EventMailbox:
    """The mailbox service proper."""

    REMOTE_TYPES = ("EventMailbox",)
    REMOTE_METHODS = ("register", "collect", "enable_delivery",
                      "renew_lease", "cancel_lease")

    MAX_LEASE = 600.0  # seconds
    SWEEP_INTERVAL = 5.0

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self._endpoint = rpc_endpoint(host)
        self._events: dict[str, list[RemoteEvent]] = {}
        self._targets: dict[str, RemoteRef] = {}
        self._landlord = Landlord(host.env, max_duration=self.MAX_LEASE,
                                  on_expire=self._drop)
        self.ref = self._endpoint.export(self, f"mailbox:{host.name}",
                                         methods=self.REMOTE_METHODS)
        host.env.process(self._landlord.sweeper(self.SWEEP_INTERVAL),
                         name=f"mailbox-sweep:{host.name}")

    # -- remote API -------------------------------------------------------------

    def register(self, lease_duration: float = 600.0) -> MailboxRegistration:
        reg_id = self.host.network.ids.uuid()
        self._events[reg_id] = []
        slot_ref = self._endpoint.export(_MailboxSlot(self, reg_id),
                                         f"mailbox-slot:{reg_id}",
                                         methods=("notify",))
        lease = self._landlord.grant(reg_id, lease_duration)
        return MailboxRegistration(registration_id=reg_id, listener=slot_ref,
                                   lease=lease)

    def collect(self, registration_id: str, max_events: int = 100) -> list[RemoteEvent]:
        queue = self._events.get(registration_id)
        if queue is None:
            raise KeyError(f"unknown mailbox registration {registration_id!r}")
        taken, self._events[registration_id] = queue[:max_events], queue[max_events:]
        return taken

    def enable_delivery(self, registration_id: str, target: RemoteRef) -> None:
        if registration_id not in self._events:
            raise KeyError(f"unknown mailbox registration {registration_id!r}")
        self._targets[registration_id] = target
        self._flush(registration_id)

    def renew_lease(self, lease_id: int, duration: float) -> Lease:
        return self._landlord.renew(lease_id, duration)

    def cancel_lease(self, lease_id: int) -> None:
        reg_id = self._landlord.cancel(lease_id)
        self._drop(reg_id)

    # -- internals ------------------------------------------------------------------

    def _store(self, registration_id: str, event: RemoteEvent) -> None:
        queue = self._events.get(registration_id)
        if queue is None:
            return
        queue.append(event)
        if registration_id in self._targets:
            self._flush(registration_id)

    def _flush(self, registration_id: str) -> None:
        self.env.process(self._relay(registration_id),
                         name=f"mailbox-flush:{registration_id[:8]}")

    def _relay(self, registration_id: str):
        target = self._targets.get(registration_id)
        queue = self._events.get(registration_id)
        if target is None or not queue:
            return
        pending, self._events[registration_id] = queue[:], []
        for index, event in enumerate(pending):
            try:
                yield self._endpoint.call(target, "notify", event,
                                          kind="mailbox-event", timeout=3.0)
            except NetworkError:
                # Push failed: requeue it and everything not pushed yet, in
                # order, ahead of what was stored meanwhile, and stop
                # pushing until re-enabled.
                self._events[registration_id] = (
                    pending[index:] + self._events[registration_id])
                self._targets.pop(registration_id, None)
                return

    def _drop(self, registration_id: str) -> None:
        self._events.pop(registration_id, None)
        self._targets.pop(registration_id, None)
        self._endpoint.unexport(f"mailbox-slot:{registration_id}")
