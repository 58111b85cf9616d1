"""RetryBudget: retries are capped in volume, refilled by successes."""

from repro.resilience import RetryBudget, retry_budget_of


def drained():
    budget = RetryBudget()
    budget.tokens = 0.0
    return budget


def test_budget_spends_down_to_zero_then_denies():
    budget = RetryBudget()
    for _ in range(int(RetryBudget.INITIAL)):
        assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.spent == RetryBudget.INITIAL and budget.denied == 1


def test_successes_earn_retries_back():
    budget = drained()
    assert not budget.try_spend()
    for _ in range(round(1 / RetryBudget.DEPOSIT_RATIO) + 1):
        budget.deposit()  # one spare deposit absorbs float rounding
    assert budget.try_spend()
    assert not budget.try_spend()


def test_deposits_cap_at_the_ceiling():
    budget = RetryBudget()
    for _ in range(10_000):
        budget.deposit()
    assert budget.tokens == RetryBudget.CAP


def test_steady_state_retry_fraction_is_bounded():
    """N successes fund at most N * DEPOSIT_RATIO retries — the storm cap."""
    budget = drained()
    successes = 200
    for _ in range(successes):
        budget.deposit()
    retries = 0
    while budget.try_spend():
        retries += 1
    assert retries == round(successes * RetryBudget.DEPOSIT_RATIO)


def test_snapshot_shape():
    budget = RetryBudget()
    budget.try_spend()
    assert budget.snapshot() == {"tokens": 49.0, "cap": 100.0,
                                 "deposit_ratio": 0.1, "spent": 1,
                                 "denied": 0}


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
