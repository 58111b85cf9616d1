"""Invariant oracles: each flags its violation class and stays quiet on
healthy records."""

from types import SimpleNamespace

from repro.chaos import ChaosPlan, FaultEvent, RunRecord, builtin_invariants
from repro.chaos.invariants import (
    BreakerLiberation,
    HealthConvergence,
    SimSanity,
    WorkloadAccounting,
)


def make_record(**overrides):
    plan = ChaosPlan(seed=1, scenario="unit", horizon=60.0,
                     events=[FaultEvent("crash", "a", 10.0, 5.0)])
    env = SimpleNamespace(now=60.0)
    net = SimpleNamespace(hosts={})
    defaults = dict(env=env, net=net, plan=plan, issued=4, completed=3,
                    failed=1, inflight=0)
    defaults.update(overrides)
    return RunRecord(**defaults)


def test_workload_accounting_clean():
    assert WorkloadAccounting().check(make_record()).ok


def test_workload_accounting_flags_lost_request():
    result = WorkloadAccounting().check(
        make_record(issued=5, completed=3, failed=1, inflight=1))
    assert not result.ok
    assert any("in flight" in v for v in result.violations)
    assert any("issued 5" in v for v in result.violations)


def test_sim_sanity_flags_horizon_overrun():
    record = make_record()
    record.env.now = 120.0
    result = SimSanity().check(record)
    assert not result.ok and "past horizon" in result.violations[0]


class _FakeModel:
    def __init__(self, status, transitions):
        self._status = status
        self.transitions = transitions

    def statuses(self):
        return self._status


def test_health_convergence_clean_within_bound():
    health = SimpleNamespace(model=_FakeModel(
        {"node:a": "UP"},
        [{"t": 12.0, "entity": "node:a", "from": "UP", "to": "DOWN"},
         {"t": 20.0, "entity": "node:a", "from": "DOWN", "to": "UP"}]))
    assert HealthConvergence(windows=25).check(
        make_record(health=health)).ok


def test_health_convergence_flags_unrecovered_entity():
    health = SimpleNamespace(model=_FakeModel(
        {"node:a": "DOWN"},
        [{"t": 12.0, "entity": "node:a", "from": "UP", "to": "DOWN"}]))
    result = HealthConvergence(windows=25).check(make_record(health=health))
    assert not result.ok and "ended DOWN" in result.violations[0]


def test_health_convergence_flags_late_recovery():
    # Fault ends at 15.0; 5 windows of 1.0 → bound 20.0; recovery at 43.
    health = SimpleNamespace(model=_FakeModel(
        {"node:a": "UP"},
        [{"t": 12.0, "entity": "node:a", "from": "UP", "to": "DOWN"},
         {"t": 43.0, "entity": "node:a", "from": "DOWN", "to": "UP"}]))
    result = HealthConvergence(windows=5).check(make_record(health=health))
    assert not result.ok and "only recovered" in result.violations[0]


def _host_with_breaker(breaker):
    registry = SimpleNamespace(items=lambda: [("svc", breaker)])
    return SimpleNamespace(shared={"breaker_registry": registry})


def test_breaker_liberation_flags_wedged_half_open():
    from repro.resilience import CircuitBreaker
    breaker = CircuitBreaker(reset_timeout=10.0)
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure(0.0)        # -> OPEN at t=0
    assert breaker.try_acquire(11.0)       # -> HALF_OPEN, probe pinned
    # No outcome ever recorded; judged shortly after, before the stale
    # probe becomes reclaimable: wedged.
    record = make_record(net=SimpleNamespace(
        hosts={"h": _host_with_breaker(breaker)}))
    record.env.now = 15.0
    result = BreakerLiberation().check(record)
    assert not result.ok and "wedged half-open" in result.violations[0]


def test_breaker_liberation_accepts_reclaimable_probe():
    from repro.resilience import CircuitBreaker
    breaker = CircuitBreaker(reset_timeout=10.0)
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure(0.0)
    assert breaker.try_acquire(11.0)
    record = make_record(net=SimpleNamespace(
        hosts={"h": _host_with_breaker(breaker)}))
    record.env.now = 30.0   # 19s of silence > reset_timeout: reclaimable
    assert BreakerLiberation().check(record).ok


def test_builtin_invariants_all_evaluate():
    from repro.chaos import evaluate_invariants
    results = evaluate_invariants(make_record(), builtin_invariants())
    names = [r.name for r in results]
    assert names == ["workload-accounting", "trace-integrity",
                     "txn-atomicity", "space-exactly-once",
                     "health-convergence", "breaker-liberation",
                     "overload-graceful", "sim-sanity"]
    assert all(r.ok for r in results)
    assert all(set(r.to_dict()) == {"name", "ok", "violations"}
               for r in results)


# -- overload-graceful ---------------------------------------------------------


def _load_summary(**overrides):
    """A drained, healthy OpenLoopEngine.summary() shape."""
    summary = {
        "inflight": 0,
        "deadline_max": 2.0,
        "total": {"offered": 100, "completed": 70, "goodput": 65,
                  "rejected": 28, "failed": 2,
                  "latency": {"p50": 0.1, "p95": 0.9, "p99": 1.4},
                  "goodput_rate": 0.65},
    }
    summary["total"].update(overrides.pop("total", {}))
    summary.update(overrides)
    return summary


def _overload_record(load):
    record = make_record()
    if load is not None:
        record.extra["load"] = load
    return record


def test_overload_graceful_vacuous_without_load_engine():
    from repro.chaos import OverloadGraceful
    assert OverloadGraceful().check(_overload_record(None)).ok


def test_overload_graceful_clean():
    from repro.chaos import OverloadGraceful
    assert OverloadGraceful().check(_overload_record(_load_summary())).ok


def test_overload_graceful_flags_lost_requests():
    from repro.chaos import OverloadGraceful
    result = OverloadGraceful().check(_overload_record(
        _load_summary(total={"completed": 60})))  # 60+28+2 != 100
    assert not result.ok and "load accounting" in result.violations[0]


def test_overload_graceful_flags_undrained_inflight():
    from repro.chaos import OverloadGraceful
    result = OverloadGraceful().check(_overload_record(
        _load_summary(inflight=3)))
    assert not result.ok and "still in flight" in result.violations[0]


def test_overload_graceful_flags_unbounded_latency():
    from repro.chaos import OverloadGraceful
    # Default bound = deadline_max + one RPC timeout = 7s.
    result = OverloadGraceful().check(_overload_record(
        _load_summary(total={"latency": {"p50": 1.0, "p95": 5.0,
                                         "p99": 8.5}})))
    assert not result.ok and "bound 7.000s" in result.violations[0]


def test_overload_graceful_flags_goodput_collapse():
    from repro.chaos import OverloadGraceful
    result = OverloadGraceful().check(_overload_record(
        _load_summary(total={"goodput": 10, "goodput_rate": 0.1})))
    assert not result.ok and "goodput collapsed" in result.violations[0]


def test_overload_graceful_flags_failures_over_ceiling():
    from repro.chaos import OverloadGraceful
    # Shed-as-failure instead of typed rejection: 40 failed of 100.
    result = OverloadGraceful().check(_overload_record(
        _load_summary(total={"completed": 40, "rejected": 20,
                             "failed": 40, "goodput": 38,
                             "goodput_rate": 0.38})))
    assert not result.ok and "typed rejections" in result.violations[0]
