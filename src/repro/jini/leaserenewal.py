"""Lease renewal service — renews leases on behalf of clients.

A device that sleeps (a duty-cycled sensor, say) cannot renew its own
registration leases; it delegates them to this always-on service. Part of
the Fig 2 infrastructure inventory ("Lease Renewal Service").

A transient network failure must not lose a lease the service was trusted
with: failed renewals are retried with jittered exponential backoff for as
long as the lease still has time left. Only a definitive refusal from the
grantor (it answered and said no — the lease is gone) or actual expiry
gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.errors import NetworkError, RemoteError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from ..observability import metrics_registry
from ..resilience import RetryPolicy, backoff_rng, resilience_events
from .lease import Lease

__all__ = ["LeaseRenewalService"]


@dataclass
class _ManagedLease:
    set_id: str
    grantor: RemoteRef
    lease: Lease
    renew_duration: float
    until: float
    alive: bool = True
    #: Consecutive failed renewal attempts (drives the backoff).
    failures: int = 0
    #: Earliest sim time the next attempt may run (backoff gate).
    next_attempt: float = 0.0


class LeaseRenewalService:
    """Norm-equivalent service: clients hand over leases for safe keeping."""

    REMOTE_TYPES = ("LeaseRenewalService",)
    REMOTE_METHODS = ("create_set", "add_lease", "remove_set")

    #: Backoff between failed renewal attempts; capped well below typical
    #: lease durations so several retries fit before expiry.
    RETRY_POLICY = RetryPolicy(base_delay=0.25, max_delay=4.0)

    def __init__(self, host: Host, check_interval: float = 1.0):
        self.host = host
        self.env = host.env
        self._endpoint = rpc_endpoint(host)
        self._sets: dict[str, list[_ManagedLease]] = {}
        self.check_interval = check_interval
        #: One sweep timer per check window services *all* managed leases —
        #: the sweeper is spawned lazily on the first add_lease and parks on
        #: this event whenever the managed set drains, so an idle service
        #: costs zero kernel events.
        self._sweeping = False
        self._stirred = None
        self.events = resilience_events(host.network)
        registry = metrics_registry(host.network)
        self._m_renewed = registry.counter("lease.renewed", host=host.name)
        self._m_lost = registry.counter("lease.lost", host=host.name)
        self._rng = backoff_rng(host.name, salt=2)
        self.ref = self._endpoint.export(self, f"norm:{host.name}",
                                         methods=self.REMOTE_METHODS)
        host.env.register_state(f"jini.norm.{host.name}",
                                self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: every managed lease, including ones mid-backoff
        after a failed renewal — restore must retry them on schedule."""
        return {
            "sets": {set_id: [{
                "alive": managed.alive,
                "expiration": managed.lease.expiration,
                "failures": managed.failures,
                "lease_id": managed.lease.lease_id,
                "next_attempt": managed.next_attempt,
                "renew_duration": managed.renew_duration,
                "until": managed.until,
            } for managed in managed_list]
                for set_id, managed_list in sorted(self._sets.items())},
            "sweeping": self._sweeping,
        }

    # -- remote API -------------------------------------------------------------

    def create_set(self, duration: float = 3600.0) -> str:
        set_id = self.host.network.ids.uuid()
        self._sets[set_id] = []
        self.env.process(self._expire_set(set_id, duration),
                         name=f"norm-set:{set_id[:8]}")
        return set_id

    def add_lease(self, set_id: str, grantor: RemoteRef, lease: Lease,
                  renew_duration: float, until: float) -> None:
        if set_id not in self._sets:
            raise KeyError(f"unknown renewal set {set_id!r}")
        managed = _ManagedLease(set_id, grantor, lease, renew_duration, until)
        self._sets[set_id].append(managed)
        if not self._sweeping:
            self._sweeping = True
            self.env.process(self._sweep_loop(),
                             name=f"norm-sweep:{self.host.name}")
        elif self._stirred is not None and not self._stirred.triggered:
            self._stirred.succeed()

    def remove_set(self, set_id: str) -> None:
        for managed in self._sets.pop(set_id, []):
            managed.alive = False

    # -- internals ------------------------------------------------------------------

    def _expire_set(self, set_id: str, duration: float):
        yield self.env.timeout(duration)
        self.remove_set(set_id)

    def _due(self, managed: _ManagedLease, now: float) -> bool:
        if now < managed.next_attempt:
            return False  # still backing off after a transient failure
        remaining = managed.lease.remaining(now)
        # Renew once past the lease's halfway point, or when the next sweep
        # window might come too late — whichever margin is wider.
        return remaining <= max(managed.lease.duration / 2,
                                1.5 * self.check_interval)

    def _lost(self, managed: _ManagedLease) -> None:
        managed.alive = False
        self._m_lost.inc()
        self.events.emit("lease_lost", lease=managed.lease.lease_id)

    def _sweep_loop(self):
        """One timer event per check window renews every due lease.

        The pre-batching design ran one recurring timer process per managed
        lease — O(leases) pending kernel events at all times. A fleet of
        duty-cycled sensors delegating 10k leases is exactly the workload
        this service exists for, so the sweep batches all of them behind a
        single ``check_interval`` timer and parks entirely while it has
        nothing to manage.
        """
        while True:
            now = self.env.now
            for set_id, leases in self._sets.items():
                if any(not m.alive or now >= m.until for m in leases):
                    self._sets[set_id] = [
                        m for m in leases if m.alive and now < m.until]
            if not any(self._sets.values()):
                self._stirred = self.env.event()
                yield self._stirred
                self._stirred = None
                continue
            yield self.env.timeout(self.check_interval)
            if not self.host.up:
                continue
            # Snapshot: renewals yield (RPC), and add_lease may append
            # mid-sweep; new arrivals wait for the next window.
            batch = [m for leases in self._sets.values() for m in leases]
            for managed in batch:
                now = self.env.now
                if not managed.alive or now >= managed.until:
                    continue
                if not self._due(managed, now):
                    continue
                if managed.lease.remaining(now) <= 0:
                    self._lost(managed)  # expired while unreachable/backing off
                    continue
                try:
                    managed.lease = yield self._endpoint.call(
                        managed.grantor, "renew_lease",
                        managed.lease.lease_id,
                        managed.renew_duration, timeout=3.0)
                    managed.failures = 0
                    self._m_renewed.inc()
                except RemoteError:
                    # The grantor answered and refused: the lease is gone.
                    self._lost(managed)
                except NetworkError:
                    managed.failures += 1
                    if managed.lease.remaining(self.env.now) <= 0:
                        self._lost(managed)  # expired while unreachable
                        continue
                    # Transient failure: back off, but never past the
                    # lease's own expiry (a retry after expiry is
                    # pointless).
                    delay = min(
                        self.RETRY_POLICY.delay(managed.failures - 1,
                                                self._rng),
                        max(0.05, managed.lease.remaining(self.env.now)))
                    managed.next_attempt = self.env.now + delay
                    self.events.emit("retry_scheduled", op="lease-renewal",
                                     lease=managed.lease.lease_id,
                                     attempt=managed.failures,
                                     delay=round(delay, 6))
