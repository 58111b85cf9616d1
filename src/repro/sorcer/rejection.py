"""The typed overload rejection and its cross-hop marker.

An :class:`Overloaded` error is *not* a provider failure: the provider is
alive and answered — it chose to shed the request. The distinction
matters twice over:

* circuit breakers must not open on shed load (tripping a breaker on a
  healthy-but-busy provider converts an overload into an outage);
* callers should back off for ``retry_after`` instead of retrying
  immediately (an instant retry is exactly the storm amplification the
  admission queue exists to stop).

Because exertion results travel as *failed exertions* on successful RPCs
(never as raised network errors), the rejection crosses the provider
boundary as a plain dict at ``OVERLOAD_PATH`` in the service context —
the same convention ``resilience/deadline`` and ``composite/visited``
use. :func:`rejection_marker` recovers it on the caller side and
:meth:`Overloaded.from_marker` re-raises it typed.

This is exertion protocol, so it lives with the exertion runtime: the
provider, exerter, facade and browser speak it whether or not anything
ever sheds. The machinery that *decides* to shed (:mod:`repro.overload`)
is an attachment on ``provider.admission`` and re-exports these names.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["OVERLOAD_PATH", "Overloaded", "mark_overloaded",
           "rejection_marker"]

#: Service-context path carrying the rejection across provider hops.
OVERLOAD_PATH = "overload/rejection"


class Overloaded(Exception):
    """A request was shed by admission control, not failed by a provider.

    ``retry_after`` is the provider's hint (seconds) for when capacity is
    likely to exist again; ``0.0`` means "unknown, use your own backoff".
    """

    def __init__(self, reason: str, retry_after: float = 0.0,
                 tenant: str = "anonymous", provider: str = ""):
        self.reason = reason
        self.retry_after = float(retry_after)
        self.tenant = tenant
        self.provider = provider
        super().__init__(f"{provider or 'provider'} shed request "
                         f"({reason}, tenant={tenant!r}, "
                         f"retry after {self.retry_after:.3f}s)")

    def to_marker(self) -> dict:
        return {"reason": self.reason,
                "retry_after": round(self.retry_after, 6),
                "tenant": self.tenant,
                "provider": self.provider}

    @classmethod
    def from_marker(cls, marker: dict) -> "Overloaded":
        return cls(reason=marker.get("reason", "queue-full"),
                   retry_after=float(marker.get("retry_after", 0.0)),
                   tenant=marker.get("tenant", "anonymous"),
                   provider=marker.get("provider", ""))


def mark_overloaded(context, exc: Overloaded) -> None:
    """Plant the rejection marker in a service context (provider side)."""
    context.put_value(OVERLOAD_PATH, exc.to_marker())


def rejection_marker(context) -> Optional[dict]:
    """The rejection marker of a failed result, or ``None`` — the caller
    side's one-line check for "was this shed rather than failed"."""
    marker = context.get_value(OVERLOAD_PATH, None)
    return dict(marker) if isinstance(marker, dict) else None
