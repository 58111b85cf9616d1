"""Service accessor — find providers matching a signature's template.

Fans a lookup out to every discovered LUS, merges matches by service id and
optionally waits (with periodic retry) for a provider to appear — arriving
services become visible as soon as their join manager registers them, which
is what makes exertion binding dynamic.
"""

from __future__ import annotations

from typing import Optional

from ..jini.discovery import lookup_discovery
from ..jini.template import ServiceItem, ServiceTemplate
from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..resilience import BreakerRegistry, resilience_events
from .signature import Signature

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


class ServiceAccessor:
    """Per-requestor access to the dynamic service registry.

    ``cache_ttl > 0`` enables short-lived caching of lookup results per
    template (what SORCER's provider-proxy caching buys): repeat exertions
    against the same signature skip the LUS round trip until the entry
    expires or :meth:`invalidate` is called. The trade-off is staleness —
    a cached proxy may point at a dead provider for up to ``cache_ttl``
    seconds, which the exerter's failover already tolerates.
    """

    RETRY_INTERVAL = 0.5  # seconds between lookups while waiting

    def __init__(self, host: Host, cache_ttl: float = 0.0):
        self.host = host
        self.env = host.env
        self.cache_ttl = cache_ttl
        self.discovery = lookup_discovery(host)
        self._endpoint = rpc_endpoint(host)
        #: Host-wide per-provider circuit breakers (see breaker_registry).
        self.breakers = breaker_registry(host)
        #: template -> (expires_at, items)
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def invalidate(self, template: Optional[ServiceTemplate] = None) -> None:
        """Drop one cached template, or the whole cache."""
        if template is None:
            self._cache.clear()
        else:
            self._cache.pop(template, None)

    def find_items(self, template: ServiceTemplate, max_matches: int = 16,
                   wait: float = 0.0):
        """All matching service items across registrars (a generator —
        run inside a process). Waits up to ``wait`` for a first match."""
        if self.cache_ttl > 0:
            cached = self._cache.get(template)
            if cached is not None and cached[0] > self.env.now and cached[1]:
                self.cache_hits += 1
                return list(cached[1])[:max_matches]
            self.cache_misses += 1
        deadline = self.env.now + wait
        while True:
            merged: dict[str, ServiceItem] = {}
            # Registrars query in discovery order (insertion-ordered dict).
            for lus_id, ref in list(  # repro: allow[DET003]
                    self.discovery.registrars.items()):
                try:
                    found = yield self._endpoint.call(
                        ref, "lookup", template, max_matches,
                        kind="lus-lookup", timeout=3.0)
                except NetworkError:
                    self.discovery.discard(lus_id)
                    continue
                for item in found:
                    merged.setdefault(item.service_id, item)
                if len(merged) >= max_matches:
                    break
            if merged or self.env.now >= deadline:
                items = list(merged.values())[:max_matches]
                if self.cache_ttl > 0 and items:
                    self._cache[template] = (self.env.now + self.cache_ttl,
                                             list(items))
                return items
            yield self.env.timeout(self.RETRY_INTERVAL)

    def find_one(self, template: ServiceTemplate, wait: float = 0.0):
        items = yield from self.find_items(template, max_matches=1, wait=wait)
        return items[0] if items else None

    def find_for(self, signature: Signature, max_matches: int = 16,
                 wait: float = 0.0):
        """Providers able to serve ``signature``."""
        items = yield from self.find_items(signature.template(),
                                           max_matches=max_matches, wait=wait)
        return items
