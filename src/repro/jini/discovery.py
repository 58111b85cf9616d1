"""Discovery protocols: how requestors and providers find lookup services.

Mirrors Jini's three protocols on the simulated network:

* **multicast request** — a starting client multicasts probes on the
  discovery group; every LUS unicasts back an announcement;
* **multicast announcement** — every LUS periodically multicasts its
  presence, so late joiners and restarted clients converge;
* **unicast discovery** — :meth:`LookupDiscovery.add_locator` targets a
  known host directly.

One :class:`LookupDiscovery` instance is shared per host (see
:func:`lookup_discovery`), maintaining the set of live registrars and
notifying listeners on discovery/discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.host import Host
from ..net.message import Message
from ..net.rpc import RemoteRef

__all__ = [
    "DISCOVERY_GROUP",
    "ANNOUNCE_PORT",
    "PROBE_PORT",
    "LookupDiscovery",
    "lookup_discovery",
]

DISCOVERY_GROUP = "jini.discovery"
#: Port where clients listen for LUS announcements.
ANNOUNCE_PORT = "discovery.announce"
#: Port where lookup services listen for probes.
PROBE_PORT = "discovery.probe"
#: The administrative groups every probe and announcement names. Nothing
#: scopes discovery by group, but the tuple still rides the wire.
PUBLIC_GROUPS = ("public",)


@dataclass
class _RegistrarInfo:
    lus_id: str
    ref: RemoteRef
    last_seen: float
    incarnation: int


class LookupDiscovery:
    """Client-side discovery: track live lookup services on this host."""

    PROBE_INTERVAL = 1.0  # seconds between multicast probes
    ANNOUNCE_TIMEOUT = 30.0  # a registrar silent this long is discarded
    REAP_INTERVAL = 5.0  # seconds between sweeps for silent registrars

    def __init__(self, host: Host, probe_count: int = 3):
        self.host = host
        self.env = host.env
        self.probe_count = probe_count
        self._registrars: dict[str, _RegistrarInfo] = {}
        self._discovered_cbs: list[Callable[[str, RemoteRef], None]] = []
        self._discarded_cbs: list[Callable[[str], None]] = []
        self._started = False
        self._probing = False
        host.join_group(DISCOVERY_GROUP)
        host.open_port(ANNOUNCE_PORT, self._on_announce)

    # -- public API ---------------------------------------------------------

    @property
    def registrars(self) -> dict[str, RemoteRef]:
        """Currently known registrars: lus_id -> proxy."""
        return {lus_id: info.ref for lus_id, info in self._registrars.items()}

    def incarnation_of(self, lus_id: str) -> Optional[int]:
        """The announced incarnation of a known registrar (``None`` when
        it is not known): an event registration made at another
        incarnation died with it."""
        info = self._registrars.get(lus_id)
        return None if info is None else info.incarnation

    def on_discovered(self, callback: Callable[[str, RemoteRef], None]) -> None:
        self._discovered_cbs.append(callback)

    def on_discarded(self, callback: Callable[[str], None]) -> None:
        self._discarded_cbs.append(callback)

    def start(self) -> None:
        """Begin probing and reaping (idempotent)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._probe(), name=f"discovery-probe:{self.host.name}")
        self.env.process(self._reaper(), name=f"discovery-reap:{self.host.name}")

    def discard(self, lus_id: str) -> None:
        """Forget a registrar (callers do this after a comm failure); it is
        re-discovered from its next announcement — and we also re-probe
        actively, so a single lost message doesn't cost a whole
        announcement interval."""
        self._forget(lus_id)
        self.reprobe()

    def reprobe(self) -> None:
        """Run another multicast probe round (at most one at a time)."""
        if self._started and not self._probing:
            self.env.process(self._probe(),
                             name=f"discovery-reprobe:{self.host.name}")

    def add_locator(self, lus_host: str) -> None:
        """Unicast discovery of a known host (LookupLocator equivalent).
        The probe advertises interest in any group, as Jini's does."""
        if self.host.up:
            self.host.send(lus_host, PROBE_PORT, kind="discovery-probe",
                           payload=(self.host.name, ("*",)))

    # -- internals -----------------------------------------------------------

    def _forget(self, lus_id: str) -> None:
        if self._registrars.pop(lus_id, None) is not None:
            for cb in list(self._discarded_cbs):
                cb(lus_id)

    def _probe(self):
        self._probing = True
        try:
            for _ in range(self.probe_count):
                if self.host.up:
                    self.host.multicast(DISCOVERY_GROUP, PROBE_PORT,
                                        kind="discovery-probe",
                                        payload=(self.host.name,
                                                 PUBLIC_GROUPS))
                yield self.env.timeout(self.PROBE_INTERVAL)
        finally:
            self._probing = False

    def _reaper(self):
        while True:
            yield self.env.timeout(self.REAP_INTERVAL)
            if not self.host.up:
                continue
            cutoff = self.env.now - self.ANNOUNCE_TIMEOUT
            stale = [lus_id for lus_id, info in self._registrars.items()
                     if info.last_seen < cutoff]
            for lus_id in stale:
                self.discard(lus_id)

    def _on_announce(self, msg: Message) -> None:
        lus_id, ref, _groups, incarnation = msg.payload
        info = self._registrars.get(lus_id)
        if info is not None and info.incarnation != incarnation:
            # The registrar restarted: same id, but its registrations and
            # event interests are gone. Discard it, then discover it anew.
            self._forget(lus_id)
            info = None
        if info is None:
            self._registrars[lus_id] = _RegistrarInfo(lus_id, ref, self.env.now,
                                                      incarnation)
            for cb in list(self._discovered_cbs):
                cb(lus_id, ref)
        else:
            info.ref = ref
            info.last_seen = self.env.now


def lookup_discovery(host: Host, **kwargs) -> LookupDiscovery:
    """Shared per-host discovery manager (created on first use)."""
    manager = host.shared.get("lookup_discovery")
    if manager is None:
        manager = host.shared["lookup_discovery"] = LookupDiscovery(
            host, **kwargs)
        manager.start()
    return manager
