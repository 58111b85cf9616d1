"""Lookup Discovery Service — discovery on behalf of clients (Fig 2).

Jini's LDS performs multicast discovery for clients that cannot (e.g. a
device outside the multicast radius, or one that sleeps): clients ask it
for the currently known registrars and may register a listener to be told
when registrars come and go.
"""

from __future__ import annotations

from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .discovery import lookup_discovery
from .events import push_event

__all__ = ["LookupDiscoveryService"]


class LookupDiscoveryService:
    """Remote façade over this host's discovery manager."""

    REMOTE_TYPES = ("LookupDiscoveryService",)
    REMOTE_METHODS = ("registrars", "register_listener", "unregister_listener")

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self._discovery = lookup_discovery(host)
        self._listeners: dict[str, RemoteRef] = {}
        self.ref = rpc_endpoint(host).export(self, f"lds:{host.name}",
                                             methods=self.REMOTE_METHODS)
        self._discovery.on_discovered(self._notify_all("discovered"))
        self._discovery.on_discarded(self._notify_all("discarded"))

    # -- remote API -------------------------------------------------------------

    def registrars(self) -> dict:
        """lus_id -> registrar proxy, as currently known."""
        return dict(self._discovery.registrars)

    def register_listener(self, listener: RemoteRef) -> str:
        listener_id = self.host.network.ids.uuid()
        self._listeners[listener_id] = listener
        return listener_id

    def unregister_listener(self, listener_id: str) -> None:
        self._listeners.pop(listener_id, None)

    # -- internals ------------------------------------------------------------------

    def _notify_all(self, event_kind: str):
        def callback(lus_id, *rest):
            payload = {"event": event_kind, "lus_id": lus_id}
            if rest:
                payload["registrar"] = rest[0]
            # Listeners notify in registration order (insertion-ordered dict).
            for listener in list(  # repro: allow[DET003]
                    self._listeners.values()):
                push_event(self.host, listener, payload, kind="lds-event")
        return callback
