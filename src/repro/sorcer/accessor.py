"""Service accessor — find providers matching a signature's template.

Fans a lookup out to every discovered LUS, merges matches by service id and
optionally waits (with periodic retry) for a provider to appear — arriving
services become visible as soon as their join manager registers them, which
is what makes exertion binding dynamic.

Lookups go through the host's :class:`LookupCache`, the accessor-side half
of Jini's ServiceDiscoveryManager ``LookupCache``: the first lookup of a
template registers interest in it at every registrar and then looks it up;
from then on the lookup service's service events keep the entry current, so
a repeat lookup sends no message.
"""

from __future__ import annotations

import math
from typing import Optional

from ..jini.discovery import lookup_discovery
from ..jini.events import ALL_TRANSITIONS, TRANSITION_MATCH_NOMATCH
from ..jini.template import ServiceItem, ServiceTemplate
from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..resilience import BreakerRegistry, resilience_events

__all__ = ["ServiceAccessor", "breaker_registry"]


def breaker_registry(host: Host) -> BreakerRegistry:
    """The host's shared per-provider circuit breakers (created on first
    use, like the host's RPC endpoint). Every accessor/exerter on the host
    consults the same registry, so a provider marked dead by one requestor
    component is skipped by all of them."""
    registry = host.shared.get("breaker_registry")
    if registry is None:
        registry = host.shared["breaker_registry"] = BreakerRegistry(
            events=resilience_events(host.network))
        host.env.register_state(f"resilience.breakers.{host.name}",
                                registry.checkpoint_state)
    return registry


def lookup_cache(host: Host) -> "LookupCache":
    """The host's shared lookup cache (created on first use): every
    accessor on the host reads one set of entries and holds one event
    registration per template and registrar."""
    cache = host.shared.get("lookup_cache")
    if cache is None:
        cache = host.shared["lookup_cache"] = LookupCache(host)
    return cache


class _Registration:
    """Our event registration for one template at one registrar."""

    __slots__ = ("event_id", "expires", "incarnation", "sequence")

    def __init__(self, event_id, expires: float, incarnation):
        self.event_id = event_id
        self.expires = expires
        #: The registrar's incarnation it was made at (it dies with that).
        self.incarnation = incarnation
        #: Highest event sequence number heard on it.
        self.sequence = 0


#: A registration whose ``notify`` is still in flight: no event id yet.
_PENDING = _Registration(None, math.inf, None)


class _Entry:
    """One template's matches and the event registrations keeping them."""

    __slots__ = ("expires", "fills", "items", "limit", "regs", "stirs")

    def __init__(self):
        #: service_id -> (item, ids of the registrars naming it), in match
        #: order; ``None`` while untrusted.
        self.items: Optional[dict] = None
        #: Largest ``max_matches`` the items answer (``inf``: all matches).
        self.limit = 0.0
        #: lus_id -> our :class:`_Registration` there.
        self.regs: dict = {}
        #: The earliest expiration of the registrations the last fill used.
        self.expires = 0.0
        #: Counts events and distrusts: a fill in flight while it moved
        #: may predate a transition, so it stores nothing.
        self.stirs = 0
        #: Fills in flight on this entry: it is not pruned under them.
        self.fills = 0

    def lapses_at(self) -> float:
        """When the last of its registrations lapses (``inf`` while one is
        pending; ``-inf`` when it holds none)."""
        return max((reg.expires for reg in self.regs.values()),
                   default=-math.inf)


class LookupCache:
    """Per-host lookup results, kept current by LUS service events.

    A miss registers interest in the template at each registrar
    (``notify`` with every transition, the template as handback, an
    :data:`EVENT_LEASE` lease) and only then looks it up, so no transition
    falls between the two. ``NOMATCH_MATCH``/``MATCH_MATCH`` add or
    replace a service; ``MATCH_NOMATCH`` drops the registrar from those
    naming it, and evicts the service once none does. Evicting is always
    safe: an emptied entry is a miss, and a fill that stopped at its match
    limit answers only as many matches as it still holds.

    An entry is trusted only while every event that could change it can
    still reach it. It is forgotten when a registration's lease lapses
    (nothing renews it: the next lookup is a miss and registers again),
    when this host crashes (casts to a down host are dropped), when an
    event's sequence number shows an earlier one was lost, and when
    discovery discards or discovers a registrar. A registration outlives a
    discard — the registrar still holds it, and a rediscovered registrar
    of the same incarnation is not asked again — but a restarted LUS comes
    back with a new incarnation and no interests, so a registration made
    at an older one is replaced.

    A miss prunes every entry whose registrations have all lapsed: nothing
    can keep it current any more, and looking its template up again
    registers anew whether or not the entry is still there.
    """

    #: Matches a fill asks each registrar for, whatever the caller wants.
    FILL_MATCHES = 16
    #: Lease requested on each event registration (the LUS maximum).
    EVENT_LEASE = 300.0
    RETRY_INTERVAL = 0.5  # seconds between lookups while waiting

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self.discovery = lookup_discovery(host)
        self._endpoint = rpc_endpoint(host)
        self._listener = self._endpoint.export(self, "lookup-cache",
                                              methods=("notify",))
        self._entries: dict[ServiceTemplate, _Entry] = {}
        #: No entry can be pruned before this time.
        self._prune_at = 0.0
        host.on_fail(lambda _host: self._distrust())
        self.discovery.on_discovered(lambda _lus_id, _ref: self._distrust())
        self.discovery.on_discarded(lambda _lus_id: self._distrust())

    def cached(self, template: ServiceTemplate,
               max_matches: int) -> Optional[list]:
        """The trusted matches for ``template`` (at most ``max_matches``),
        or ``None`` when looking it up must go to the registrars."""
        entry = self._entries.get(template)
        if (entry is None or not entry.items or max_matches > entry.limit
                or entry.expires <= self.env.now):
            return None
        return [item for item, _ in
                list(entry.items.values())[:max_matches]]

    def invalidate(self, template: ServiceTemplate) -> None:
        """Stop trusting ``template``'s matches. Its event registrations
        stay: the next lookup need not register again."""
        entry = self._entries.get(template)
        if entry is not None:
            entry.items = None
            entry.stirs += 1

    def notify(self, event) -> None:
        """Service-event listener (remote, one-way)."""
        entry = self._entries.get(event.handback)
        if entry is None:
            return
        reg = entry.regs.get(event.source)
        if reg is None or reg.event_id != event.event_id:
            return  # a registration we no longer hold, or not yet
        lost = event.sequence != reg.sequence + 1
        reg.sequence = max(reg.sequence, event.sequence)
        entry.stirs += 1
        items = entry.items
        if items is None:
            return
        if lost:
            entry.items = None  # what the lost event said is unknown
            return
        held = items.get(event.service_id)
        names = () if held is None else held[1]
        if event.transition != TRANSITION_MATCH_NOMATCH:
            if event.source not in names:
                names += (event.source,)
            items[event.service_id] = (event.item, names)
        elif held is not None:
            names = tuple(name for name in names if name != event.source)
            if names:
                items[event.service_id] = (held[0], names)
            else:
                del items[event.service_id]
                if entry.limit != math.inf:
                    entry.limit = len(items)

    def fill(self, template: ServiceTemplate, max_matches: int, wait: float):
        """Register interest where no live registration is held, then look
        ``template`` up, at every registrar (a generator); waits up to
        ``wait`` for a first match. Returns the merged matches."""
        entry = self._entries.get(template)
        if entry is None:
            entry = self._entries[template] = _Entry()
        entry.fills += 1
        try:
            self._prune()
            return (yield from self._fill(entry, template, max_matches, wait))
        finally:
            entry.fills -= 1
            self._prune_at = min(self._prune_at, entry.lapses_at())

    def _prune(self) -> None:
        """Drop every entry, no fill in flight, whose registrations have
        all lapsed."""
        now = self.env.now
        if now < self._prune_at:
            return
        self._prune_at = math.inf
        for template, entry in list(self._entries.items()):
            if entry.fills:
                continue  # its fill's end bounds the next prune
            lapses_at = entry.lapses_at()
            if lapses_at <= now:
                del self._entries[template]
            else:
                self._prune_at = min(self._prune_at, lapses_at)

    def _fill(self, entry: _Entry, template: ServiceTemplate,
              max_matches: int, wait: float):
        limit = max(max_matches, self.FILL_MATCHES)
        deadline = self.env.now + wait
        while True:
            stirs = entry.stirs
            merged: dict[str, tuple] = {}
            expires = math.inf
            registered = True
            # Registrars query in discovery order (insertion-ordered dict).
            for lus_id, ref in list(  # repro: allow[DET003]
                    self.discovery.registrars.items()):
                reg = entry.regs.get(lus_id)
                incarnation = self.discovery.incarnation_of(lus_id)
                registering = False
                try:
                    if reg is _PENDING:
                        # A concurrent miss is registering here: look up,
                        # but events may not reach us yet, so keep nothing.
                        registered = False
                    elif (reg is None or reg.expires <= self.env.now
                            or reg.incarnation != incarnation):
                        # Pending until the registrar answers, so that a
                        # concurrent miss does not register twice.
                        entry.regs[lus_id] = _PENDING
                        registering = True
                        registration = yield self._endpoint.call(
                            ref, "notify", template, ALL_TRANSITIONS,
                            self._listener, template, self.EVENT_LEASE,
                            kind="lus-notify", timeout=3.0)
                        reg = entry.regs[lus_id] = _Registration(
                            registration.event_id,
                            registration.lease.expiration, incarnation)
                    found = yield self._endpoint.call(
                        ref, "lookup", template, limit,
                        kind="lus-lookup", timeout=3.0)
                except NetworkError:
                    if registering and entry.regs.get(lus_id) is _PENDING:
                        del entry.regs[lus_id]
                    self.discovery.discard(lus_id)
                    continue
                expires = min(expires, reg.expires)
                for item in found:
                    held = merged.get(item.service_id)
                    merged[item.service_id] = (
                        (item, (lus_id,)) if held is None
                        else (held[0], held[1] + (lus_id,)))
                if len(merged) >= limit:
                    break
            if registered and stirs == entry.stirs and self.host.up:
                entry.items = merged
                entry.limit = limit if len(merged) >= limit else math.inf
                entry.expires = expires
            if merged or self.env.now >= deadline:
                return [item for item, _ in merged.values()]
            yield self.env.timeout(self.RETRY_INTERVAL)

    def _distrust(self) -> None:
        for entry in self._entries.values():
            entry.items = None
            entry.stirs += 1


class ServiceAccessor:
    """Per-requestor access to the dynamic service registry, through the
    host's :class:`LookupCache`. A cached match may name a provider that
    died before its lease lapsed; the exerter's failover and its one live
    lookup after a failed cache hit tolerate that."""

    #: Matches :meth:`find_items` returns unless asked for another count.
    MAX_MATCHES = 16

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self.cache = lookup_cache(host)
        self.discovery = self.cache.discovery
        #: Host-wide per-provider circuit breakers (see breaker_registry).
        self.breakers = breaker_registry(host)
        self.cache_hits = 0
        self.cache_misses = 0

    def is_cached(self, template: ServiceTemplate) -> bool:
        """Whether :meth:`find_items` with its default ``max_matches``
        would answer from the cache now."""
        return self.cache.cached(template, self.MAX_MATCHES) is not None

    def invalidate(self, template: ServiceTemplate) -> None:
        """Distrust the cached matches for ``template``."""
        self.cache.invalidate(template)

    def find_items(self, template: ServiceTemplate,
                   max_matches: int = MAX_MATCHES, wait: float = 0.0):
        """All matching service items across registrars (a generator —
        run inside a process). Waits up to ``wait`` for a first match."""
        items = self.cache.cached(template, max_matches)
        if items is not None:
            self.cache_hits += 1
            return items
        self.cache_misses += 1
        items = yield from self.cache.fill(template, max_matches, wait)
        return items[:max_matches]

    def find_one(self, template: ServiceTemplate, wait: float = 0.0):
        items = yield from self.find_items(template, max_matches=1, wait=wait)
        return items[0] if items else None
