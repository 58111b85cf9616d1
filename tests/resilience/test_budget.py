"""RetryBudget: retries are capped in volume, refilled by successes."""

import pytest

from repro.resilience import RetryBudget, retry_budget_of


def test_budget_spends_down_to_zero_then_denies():
    budget = RetryBudget(initial=2.0, deposit_ratio=0.1, cap=10.0)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.spent == 2 and budget.denied == 1


def test_successes_earn_retries_back():
    budget = RetryBudget(initial=0.0, deposit_ratio=0.25, cap=10.0)
    assert not budget.try_spend()
    for _ in range(4):
        budget.deposit()
    assert budget.try_spend()
    assert not budget.try_spend()


def test_deposits_cap_at_the_ceiling():
    budget = RetryBudget(initial=5.0, deposit_ratio=1.0, cap=5.0)
    for _ in range(100):
        budget.deposit()
    assert budget.tokens == 5.0


def test_steady_state_retry_fraction_is_bounded():
    """N successes fund at most N * deposit_ratio retries — the storm cap."""
    budget = RetryBudget(initial=0.0, deposit_ratio=0.25, cap=1000.0)
    successes = 200
    for _ in range(successes):
        budget.deposit()
    retries = 0
    while budget.try_spend():
        retries += 1
    assert retries == int(successes * 0.25)


def test_snapshot_shape():
    budget = RetryBudget(initial=3.0)
    budget.try_spend()
    assert budget.snapshot() == {"tokens": 2.0, "cap": 100.0,
                                 "deposit_ratio": 0.1, "spent": 1,
                                 "denied": 0}


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetryBudget(initial=-1.0)
    with pytest.raises(ValueError):
        RetryBudget(cap=0.0)
    with pytest.raises(ValueError):
        RetryBudget(deposit_ratio=1.5)


def test_budget_shared_per_host():
    class FakeHost:
        def __init__(self):
            self.shared = {}

    host = FakeHost()
    first = retry_budget_of(host)
    first.try_spend()
    second = retry_budget_of(host)
    assert second is first
    assert second.spent == 1
    assert retry_budget_of(FakeHost()) is not first
