"""Retry budgets — the client-side cap on retry amplification.

Backoff spaces retries out in *time*; a retry budget caps them in
*volume*. Without one, N requestors each retrying R times turn one
provider brownout into ``N × (R+1)`` offered load — the classic retry
storm that converts an overload into an outage. The budget is a token
bucket refilled by *successes*: each success deposits ``DEPOSIT_RATIO``
tokens, each retry spends one. In steady state retries are thus bounded
to a fraction of successful traffic; when nothing succeeds, the bucket
drains and retries stop entirely instead of piling on. A budget starts
with ``INITIAL`` tokens and never holds more than ``CAP``.

One budget is shared per host (all exerters on a requestor host draw
from it), mirroring how circuit breakers attach via
:func:`~repro.resilience.breaker.breaker_registry`.
"""

from __future__ import annotations

__all__ = ["RetryBudget", "retry_budget_of"]


class RetryBudget:
    """Token bucket refilled by successes, spent by retries."""

    __slots__ = ("tokens", "spent", "denied")

    INITIAL = 50.0
    DEPOSIT_RATIO = 0.1
    CAP = 100.0

    def __init__(self):
        self.tokens = self.INITIAL
        self.spent = 0
        self.denied = 0

    def deposit(self) -> None:
        """Record one success; earns ``DEPOSIT_RATIO`` of a retry token."""
        self.tokens = min(self.CAP, self.tokens + self.DEPOSIT_RATIO)

    def try_spend(self) -> bool:
        """Take one retry token; ``False`` means the retry must be dropped."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    def snapshot(self) -> dict:
        return {"tokens": round(self.tokens, 6), "cap": self.CAP,
                "deposit_ratio": self.DEPOSIT_RATIO,
                "spent": self.spent, "denied": self.denied}


def retry_budget_of(host) -> RetryBudget:
    """The host's shared retry budget (created on first use)."""
    budget = host.shared.get("retry_budget")
    if budget is None:
        budget = host.shared["retry_budget"] = RetryBudget()
        # Tests hand in bare host stand-ins; only a host on a simulated
        # network joins the snapshot.
        env = getattr(host, "env", None)
        if env is not None:
            env.register_state(f"resilience.budget.{host.name}",
                               budget.snapshot)
    return budget
