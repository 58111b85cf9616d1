"""Per-tenant token-bucket quotas on the simulated clock.

A :class:`TokenBucket` refills *lazily*: tokens are a pure function of
the last-touch timestamp and the clock, so no timer process exists to
perturb the event schedule (the same reason leases use absolute
expiries). All state is floats derived from sim time — deterministic
per seed by construction.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TokenBucket", "QuotaRegistry"]

#: ``retry_after`` reported when the bucket can never refill (rate 0).
_NEVER = 3600.0


class TokenBucket:
    """``rate`` tokens/second, holding at most ``burst`` tokens."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float):
        if rate < 0 or burst <= 0:
            raise ValueError("quota needs rate >= 0 and burst > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)  # a fresh tenant starts with full burst
        self.last = 0.0

    def _refill(self, now: float) -> None:
        if now > self.last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.last) * self.rate)
            self.last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, now: float, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will exist (0 when they already do)."""
        self._refill(now)
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return _NEVER
        return deficit / self.rate


class QuotaRegistry:
    """Tenant name -> bucket. Tenants without a bucket are unmetered
    unless a default quota is configured (then one is minted per tenant
    on first sight, so a brand-new tenant cannot bypass metering)."""

    def __init__(self, default_rate: Optional[float] = None,
                 default_burst: Optional[float] = None):
        self.default_rate = default_rate
        self.default_burst = default_burst
        self._buckets: dict[str, TokenBucket] = {}

    def set_quota(self, tenant: str, rate: float, burst: float) -> None:
        self._buckets[tenant] = TokenBucket(rate, burst)

    def bucket(self, tenant: str) -> Optional[TokenBucket]:
        bucket = self._buckets.get(tenant)
        if bucket is None and self.default_rate is not None:
            bucket = TokenBucket(self.default_rate,
                                 self.default_burst or self.default_rate)
            self._buckets[tenant] = bucket
        return bucket

    def checkpoint_state(self) -> dict:
        """Snapshot section fragment: every bucket's fill and refill mark."""
        return {tenant: {
            "burst": bucket.burst,
            "last": bucket.last,
            "rate": bucket.rate,
            "tokens": round(bucket.tokens, 9),
        } for tenant, bucket in sorted(self._buckets.items())}

    def admit(self, tenant: str, now: float) -> tuple:
        """(admitted, retry_after) for one request from ``tenant``."""
        bucket = self.bucket(tenant)
        if bucket is None:
            return True, 0.0
        if bucket.try_take(now):
            return True, 0.0
        return False, bucket.retry_after(now)
