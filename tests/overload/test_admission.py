"""AdmissionController: the two shed points (reject-on-admit,
drop-expired-on-dequeue), slot accounting and retry-after hints."""

import pytest

from repro.observability.registry import MetricsRegistry
from repro.overload import (
    AdmissionController,
    Overloaded,
    WeightedFairQueue,
)
from repro.resilience import Deadline
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_admission(env, **kwargs):
    kwargs.setdefault("max_inflight", 1)
    kwargs.setdefault("max_queue", 2)
    return AdmissionController(env, "p", MetricsRegistry(), **kwargs)


def worker(env, admission, results, tenant="t", deadline=None, hold=0.1):
    """Acquire, hold a slot for ``hold`` sim seconds, release."""
    try:
        yield from admission.acquire(tenant, deadline)
    except Overloaded as exc:
        results.append((env.now, "shed", exc.reason, exc.retry_after))
        return
    start = env.now
    results.append((start, "admitted", tenant, None))
    yield env.timeout(hold)
    admission.release(service_time=env.now - start)


def test_fast_path_admits_without_waiting(env):
    admission = make_admission(env, max_inflight=2)
    results = []
    env.process(worker(env, admission, results))
    env.process(worker(env, admission, results))
    env.run()
    assert [r[1] for r in results] == ["admitted", "admitted"]
    assert [r[0] for r in results] == [0.0, 0.0]
    assert admission.inflight == 0  # both released


def test_queueing_then_dispatch_on_release(env):
    admission = make_admission(env)  # 1 slot, queue of 2
    results = []
    for _ in range(3):
        env.process(worker(env, admission, results, hold=0.1))
    env.run()
    # Serialized through the single slot: admits at 0.0, 0.1, 0.2.
    assert [(r[0], r[1]) for r in results] == [
        (0.0, "admitted"), (pytest.approx(0.1), "admitted"),
        (pytest.approx(0.2), "admitted")]


def test_queue_full_rejects_immediately_with_hint(env):
    admission = make_admission(env)  # 1 slot, queue of 2
    results = []
    for _ in range(4):
        env.process(worker(env, admission, results))
    env.run()
    shed = [r for r in results if r[1] == "shed"]
    assert len(shed) == 1
    now, _, reason, retry_after = shed[0]
    assert now == 0.0, "queue-full must shed at arrival, not after queueing"
    assert reason == "queue-full"
    # Hint: 3 requests ahead (2 queued + this one) at the 0.1s default
    # service EWMA through 1 slot.
    assert retry_after == pytest.approx(0.3)


def test_expired_on_admit_rejected_without_queue_time(env):
    admission = make_admission(env)
    results = []

    def late():
        yield env.timeout(1.0)
        yield from worker(env, admission, results, tenant="late",
                          deadline=Deadline(expires_at=0.5))

    env.process(late())
    env.run()
    assert results == [(1.0, "shed", "expired", 0.0)]


def test_expired_in_queue_dropped_without_burning_slot(env):
    admission = make_admission(env, max_inflight=1, max_queue=4)
    results = []
    # Holder occupies the only slot for 1s; the doomed waiter's deadline
    # dies at 0.5 while queued; the patient waiter must still get the
    # slot the doomed one never burned.
    env.process(worker(env, admission, results, tenant="holder", hold=1.0))
    env.process(worker(env, admission, results, tenant="doomed",
                       deadline=Deadline(expires_at=0.5)))
    env.process(worker(env, admission, results, tenant="patient"))
    env.run()
    by_tenant = {r[2]: r for r in results if r[1] != "shed"}
    shed = [r for r in results if r[1] == "shed"]
    assert shed == [(1.0, "shed", "expired-in-queue", 0.0)]
    assert by_tenant["patient"][0] == pytest.approx(1.0)
    assert admission.inflight == 0


def test_weighted_fair_queue_drains_by_weight(env):
    fair = WeightedFairQueue(weights={"gold": 2.0, "bronze": 1.0})
    admission = make_admission(env, max_inflight=1, max_queue=8, fair=fair)
    results = []
    env.process(worker(env, admission, results, tenant="first", hold=0.5))

    def backlog():
        yield env.timeout(0.1)  # arrive while the slot is held
        for index in range(2):
            env.process(worker(env, admission, results, tenant="bronze",
                               hold=0.1))
            env.process(worker(env, admission, results, tenant="gold",
                               hold=0.1))

    env.process(backlog())
    env.run()
    admitted = [r[2] for r in results if r[1] == "admitted"]
    # SFQ tags: gold (weight 2) gets both items through before bronze's
    # second; interleave is gold, bronze, gold, bronze — not FIFO order.
    assert admitted == ["first", "gold", "bronze", "gold", "bronze"]


def test_service_ewma_tracks_observed_service_time(env):
    admission = make_admission(env, max_inflight=1)
    results = []
    env.process(worker(env, admission, results, hold=1.0))
    env.run()
    assert admission.snapshot()["service_ewma"] == pytest.approx(
        0.1 + 0.2 * (1.0 - 0.1))


def test_counters_have_stable_shape_before_any_shed(env):
    registry = MetricsRegistry()
    AdmissionController(env, "p", registry)
    names = set(registry.snapshot())
    assert "overload.admitted{provider=p}" in names
    for reason in ("queue-full", "expired", "expired-in-queue"):
        assert f"overload.rejected{{provider=p,reason={reason}}}" in names


def test_rejects_bad_limits(env):
    with pytest.raises(ValueError):
        make_admission(env, max_inflight=0)
    with pytest.raises(ValueError):
        make_admission(env, max_queue=-1)
