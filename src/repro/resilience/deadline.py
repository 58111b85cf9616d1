"""Deadlines — end-to-end time budgets for exertions.

Without a deadline, a nested CSP→ESP call tree compounds timeouts: every
hop waits its own ``provider_wait`` plus ``retries × invocation_timeout``,
so the caller's worst case multiplies with depth. A :class:`Deadline` is an
*absolute* expiry on the shared sim clock; each hop clamps its local waits
to the remaining budget and forwards the same expiry, so the end-to-end
bound is the caller's — never more.

The expiry travels two ways: requestor-side in
:class:`~repro.sorcer.exertion.ControlContext.deadline`, and across the
provider boundary as a plain float at ``DEADLINE_PATH`` in the service
context (operations only see the context, mirroring how the CSP's cycle
guard travels at ``composite/visited``); only :meth:`Deadline.to_context`
and :meth:`Deadline.from_context` know that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DEADLINE_PATH", "Deadline", "DeadlineExceeded"]

#: Service-context path carrying the absolute expiry across provider hops.
DEADLINE_PATH = "resilience/deadline"


class DeadlineExceeded(Exception):
    """The exertion's time budget ran out before a result was produced."""


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry time on the simulation clock."""

    expires_at: float

    @classmethod
    def after(cls, now: float, budget: float) -> "Deadline":
        """A deadline ``budget`` seconds from ``now``."""
        return cls(now + max(0.0, budget))

    @classmethod
    def from_context(cls, context) -> Optional["Deadline"]:
        """The deadline a parent hop forwarded in ``context``; ``None`` if
        absent or not a number (a garbled expiry is no budget, not a crash)."""
        expires_at = context.get_value(DEADLINE_PATH, None)
        if isinstance(expires_at, (int, float)):
            return cls(float(expires_at))
        return None

    def to_context(self, context) -> None:
        """Forward this deadline to the provider side of a hop."""
        context.put_value(DEADLINE_PATH, self.expires_at)

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def clamp(self, timeout: float, now: float) -> float:
        """The smaller of ``timeout`` and the remaining budget."""
        return min(timeout, self.remaining(now))

    def check(self, now: float, what: str = "exertion") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired(now):
            raise DeadlineExceeded(
                f"{what} deadline expired {now - self.expires_at:.3f}s ago "
                f"(expires_at={self.expires_at:.3f})")
