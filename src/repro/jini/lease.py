"""Leases — Jini's time-bounded resource grants.

Everything a Jini service hands out (registrations, event interest,
transactions, space entries) is leased: the grantor promises the resource
only until ``expiration`` and the holder must renew. When a holder dies, its
leases lapse and the grantor reclaims the resource — this is the mechanism
the paper credits for keeping the sensor network "healthy and robust"
(§IV.B).

:class:`Landlord` is the grantor-side bookkeeping (the name comes from
Jini's landlord lease paradigm); :class:`Lease` is the serializable
holder-side handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Environment

__all__ = ["Lease", "Landlord", "LeaseDeniedError", "UnknownLeaseError", "FOREVER"]

#: Request duration meaning "as long as you'll give me".
FOREVER = float("inf")


class LeaseDeniedError(Exception):
    """Grantor refused to grant or renew a lease."""


class UnknownLeaseError(Exception):
    """Lease id is not (or no longer) known to the grantor."""


@dataclass
class Lease:
    """Holder-side lease handle (pure data; renewal goes through the grantor)."""

    lease_id: int
    expiration: float
    duration: float

    def remaining(self, now: float) -> float:
        return max(0.0, self.expiration - now)

    def is_expired(self, now: float) -> bool:
        return now >= self.expiration


@dataclass(slots=True)
class _LeaseRecord:
    lease_id: int
    resource_id: Any
    expiration: float
    duration: float = 0.0  # last granted duration (liveness baseline)


class Landlord:
    """Grantor-side lease table.

    The owner supplies ``on_expire(resource_id)`` which is invoked by
    :meth:`reap` for every lapsed lease — that is where a lookup service
    deregisters the service, an event registration is dropped, etc.
    """

    def __init__(self, env: Environment,
                 max_duration: float = 300.0,
                 on_expire: Optional[Callable[[Any], None]] = None):
        self.env = env
        self.max_duration = max_duration
        self.on_expire = on_expire
        self._leases: dict[int, _LeaseRecord] = {}
        #: The same records keyed by resource (the newest, should a
        #: resource be granted again while still leased), so owners ask
        #: "which lease holds X" here instead of keeping their own
        #: resource -> lease id map beside the landlord.
        self._by_resource: dict[Any, _LeaseRecord] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._leases)

    def checkpoint_state(self) -> dict:
        """Snapshot section fragment: the full lease table.

        Includes leases that have lapsed but not yet been reaped — the
        restore contract requires the sweeper in a restored run to reap
        exactly what the original run's sweeper would have."""
        return {
            "leases": [{
                "duration": record.duration,
                "expiration": record.expiration,
                "lease_id": record.lease_id,
                "resource": repr(record.resource_id),
            } for _, record in sorted(self._leases.items())],
            "next_id": self._next_id,
        }

    def _clamp(self, duration: float) -> float:
        if duration <= 0:
            raise LeaseDeniedError(f"non-positive lease duration {duration}")
        return min(duration, self.max_duration)

    def grant(self, resource_id: Any, duration: float) -> Lease:
        duration = self._clamp(duration)
        lease_id = self._next_id
        self._next_id += 1
        record = _LeaseRecord(lease_id, resource_id, self.env.now + duration,
                              duration)
        self._leases[lease_id] = record
        self._by_resource[resource_id] = record
        return Lease(lease_id=lease_id, expiration=record.expiration,
                     duration=duration)

    def renew(self, lease_id: int, duration: float) -> Lease:
        record = self._leases.get(lease_id)
        if record is None:
            raise UnknownLeaseError(f"lease {lease_id} unknown or expired")
        if record.expiration <= self.env.now:
            # Lapsed but not yet reaped: treat as gone.
            self._expire(record)
            raise UnknownLeaseError(f"lease {lease_id} already expired")
        duration = self._clamp(duration)
        record.expiration = self.env.now + duration
        record.duration = duration
        return Lease(lease_id=lease_id, expiration=record.expiration,
                     duration=duration)

    def cancel(self, lease_id: int) -> Any:
        """Cancel and return the resource id (without firing on_expire)."""
        record = self._leases.get(lease_id)
        if record is None:
            raise UnknownLeaseError(f"lease {lease_id} unknown")
        self._forget(record)
        return record.resource_id

    def lease_of(self, resource_id: Any) -> Optional[_LeaseRecord]:
        """The lease ``resource_id`` holds (``lease_id``, ``expiration``,
        ``duration``; read-only), or ``None``. A lease that lapsed but has
        not been reaped yet is still returned — compare ``expiration``
        with the clock where that matters."""
        return self._by_resource.get(resource_id)

    def clear(self) -> None:
        """Drop all leases without firing ``on_expire`` (process death)."""
        self._leases.clear()
        self._by_resource.clear()

    def force_expire(self, lease_id: int) -> bool:
        """Lapse a lease *now* (fault injection / admin eviction): the next
        :meth:`reap` fires ``on_expire`` exactly as a missed renewal would.
        Returns False for an unknown lease."""
        record = self._leases.get(lease_id)
        if record is None:
            return False
        record.expiration = self.env.now
        return True

    def reap(self) -> list[Any]:
        """Expire all lapsed leases; returns their resource ids."""
        now = self.env.now
        lapsed = [r for r in self._leases.values() if r.expiration <= now]
        expired_resources = []
        for record in lapsed:
            self._expire(record)
            expired_resources.append(record.resource_id)
        return expired_resources

    def _forget(self, record: _LeaseRecord) -> None:
        self._leases.pop(record.lease_id, None)
        if self._by_resource.get(record.resource_id) is record:
            del self._by_resource[record.resource_id]

    def _expire(self, record: _LeaseRecord) -> None:
        self._forget(record)
        if self.on_expire is not None:
            self.on_expire(record.resource_id)

    def sweeper(self, interval: float):
        """A kernel process that reaps every ``interval``, empty table or
        not; run it with ``env.process(landlord.sweeper(1.0))``. Owners
        with many landlords and few leases (an ESP's subscriptions) run no
        sweeper and call :meth:`reap` where a lapsed lease shows up."""
        while True:
            yield self.env.timeout(interval)
            self.reap()
