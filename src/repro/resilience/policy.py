"""Retry policies — exponential backoff with deterministic jitter.

Jitter keeps a fleet of requestors from retrying in lock-step (the thundering
herd a synchronized backoff produces), but a wall-clock or global-RNG jitter
would make simulation traces irreproducible. Delays are therefore drawn from
a caller-supplied :func:`numpy.random.Generator` seeded stably (see
:func:`backoff_rng`), so identical scenario seeds replay identical delays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

__all__ = ["RetryPolicy", "backoff_rng"]


def backoff_rng(name: str, salt: int = 0) -> np.random.Generator:
    """A stable RNG for jitter, derived from a name (host name, usually).

    Independent of construction order and of every other RNG in the run, so
    adding a retry somewhere cannot perturb unrelated random streams.
    """
    return np.random.default_rng([zlib.crc32(name.encode("utf-8")), salt, 0x5EED])


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * MULTIPLIER**attempt``, capped.

    ``JITTER`` is the fraction of each delay that is randomized *downward*
    (a "decorrelated shave"): the actual delay lands uniformly in
    ``[0.5 * d, d]``. Shaving down rather than up keeps the policy's
    ``max_delay`` an honest upper bound for deadline math.
    """

    MULTIPLIER: ClassVar[float] = 2.0
    JITTER: ClassVar[float] = 0.5

    base_delay: float = 0.2
    max_delay: float = 5.0

    def __post_init__(self):
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")

    def delay(self, attempt: int,
              rng: Optional[np.random.Generator] = None) -> float:
        """Delay before retry number ``attempt`` (0-based: the wait after
        the first failure is ``delay(0)``)."""
        raw = min(self.max_delay, self.base_delay * self.MULTIPLIER ** max(0, attempt))
        if rng is None or raw <= 0.0:
            return raw
        return raw * (1.0 - self.JITTER * float(rng.random()))

    def delay_before_retry(self, attempt: int,
                           rng: Optional[np.random.Generator] = None,
                           deadline=None, now: float = 0.0) -> Optional[float]:
        """The backoff to sleep before retry ``attempt`` — or ``None`` when
        the retry is pointless because the deadline would expire during (or
        immediately after) the sleep.

        A retry scheduled past its own deadline burns a provider slot on
        work whose answer nobody can use; under overload that wasted slot
        is amplification. Checking *before* sleeping (rather than clamping
        the sleep to the remaining budget) abandons such retries outright.

        The jitter draw happens whether or not the retry is abandoned, so
        the RNG stream stays aligned with runs where the deadline was
        looser — abandoning a retry must not reshuffle later delays.
        """
        delay = self.delay(attempt, rng)
        if deadline is not None and deadline.remaining(now) <= delay:
            return None
        return delay

    def total_budget(self, attempts: int) -> float:
        """Upper bound on the summed backoff across ``attempts`` retries."""
        return sum(min(self.max_delay, self.base_delay * self.MULTIPLIER ** a)
                   for a in range(max(0, attempts)))
