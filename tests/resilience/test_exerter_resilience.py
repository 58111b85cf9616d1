"""Exerter-level resilience: deadlines, breakers and retry backoff in situ."""

import pytest

from repro.net import Host
from repro.resilience import (
    DEADLINE_PATH,
    BreakerState,
    Deadline,
    RetryPolicy,
    resilience_events,
)
from repro.sorcer import Exerter, ServiceContext, Signature, Task, Tasker


class EchoProvider(Tasker):
    SERVICE_TYPES = ("Echo",)

    def __init__(self, host, name="Echo", **kw):
        super().__init__(host, name, **kw)
        self.add_operation("echo", self._echo)

    def _echo(self, ctx):
        return ctx.get_value("arg/x")


def echo_task(name="t", x=7, deadline=None, retries=2, timeout=2.0):
    ctx = ServiceContext()
    ctx.put_in_value("arg/x", x)
    task = Task(name, Signature("Echo", "echo"), ctx)
    task.control.retries = retries
    task.control.invocation_timeout = timeout
    task.control.provider_wait = 2.0
    task.control.deadline = deadline
    return task


def start_echo(net, host_name="echo-host", name="Echo"):
    host = Host(net, host_name)
    provider = EchoProvider(host, name)
    provider.start()
    return host, provider


def exert_after_settle(env, exerter, task, settle=2.0):
    def proc():
        yield env.timeout(settle)
        result = yield env.process(exerter.exert(task))
        return result
    return env.run(until=env.process(proc()))


def test_deadline_forwarded_in_service_context(grid):
    env, net, lus = grid
    start_echo(net)
    exerter = Exerter(Host(net, "client"))
    deadline = Deadline(expires_at=50.0)
    result = exert_after_settle(env, exerter,
                                echo_task(deadline=deadline))
    assert result.is_done
    # The absolute expiry crossed the provider boundary in the context.
    assert result.context.get_value(DEADLINE_PATH) == 50.0


def test_deadline_expiry_fails_without_burning_full_timeouts(grid):
    env, net, lus = grid
    host, provider = start_echo(net)
    exerter = Exerter(Host(net, "client"))

    def proc():
        yield env.timeout(2.0)
        host.fail()
        deadline = Deadline.after(env.now, 3.0)
        task = echo_task(deadline=deadline, retries=5, timeout=2.0)
        t0 = env.now
        result = yield env.process(exerter.exert(task))
        return result, env.now - t0

    result, elapsed = env.run(until=env.process(proc()))
    assert result.is_failed
    # Without the deadline: 6 attempts x 2s plus backoff would be > 12s.
    assert elapsed <= 3.0 + 1e-9
    events = resilience_events(net)
    assert events.count("deadline_exceeded") >= 1


def test_breaker_opens_and_deadline_caller_fails_fast(grid):
    env, net, lus = grid
    host, provider = start_echo(net)
    exerter = Exerter(Host(net, "client"))
    events = resilience_events(net)

    def proc():
        yield env.timeout(2.0)
        host.fail()
        # Three timed-out attempts open the breaker (threshold 3).
        task = echo_task(deadline=Deadline.after(env.now, 30.0),
                         retries=2, timeout=1.0)
        yield env.process(exerter.exert(task))
        assert exerter.breakers.snapshot() == {provider.service_id: "open"}
        # A second call now fails instantly — no timeout is burned.
        t0 = env.now
        result = yield env.process(
            exerter.exert(echo_task(name="t2",
                                    deadline=Deadline.after(env.now, 30.0))))
        return result, env.now - t0

    result, elapsed = env.run(until=env.process(proc()))
    assert result.is_failed
    assert "open-circuit" in result.exceptions[0]
    assert elapsed < 0.1
    assert events.count("breaker_skip") >= 1
    assert events.count("breaker_open") >= 1


def test_patient_caller_probes_open_breaker(grid):
    env, net, lus = grid
    host, provider = start_echo(net)
    exerter = Exerter(Host(net, "client"))
    events = resilience_events(net)

    def proc():
        yield env.timeout(2.0)
        host.fail()
        # Open the breaker with a deadline-carrying call...
        yield env.process(exerter.exert(
            echo_task(deadline=Deadline.after(env.now, 10.0),
                      retries=2, timeout=1.0)))
        assert exerter.breakers.state_of(provider.service_id) \
            is BreakerState.OPEN
        host.recover()
        yield env.timeout(0.5)
        # ...then a patient call (no deadline) gets through regardless:
        # the open breaker is probed instead of refusing outright.
        result = yield env.process(
            exerter.exert(echo_task(name="patient", retries=2, timeout=2.0)))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_done
    assert result.get_return_value() == 7
    assert events.count("breaker_forced_probe") >= 1
    # The successful probe closed the breaker again.
    assert exerter.breakers.state_of(provider.service_id) \
        is BreakerState.CLOSED


def test_retries_back_off_exponentially(grid):
    env, net, lus = grid
    host, provider = start_echo(net)
    exerter = Exerter(Host(net, "client"))
    events = resilience_events(net)

    def proc():
        yield env.timeout(2.0)
        host.fail()
        task = echo_task(retries=3, timeout=1.0)
        task.control.backoff = RetryPolicy(base_delay=0.5, max_delay=8.0)
        yield env.process(exerter.exert(task))

    env.run(until=env.process(proc()))
    delays = [dict(fields)["delay"]
              for (_t, kind, fields) in events.trace
              if kind == "retry_scheduled"]
    assert len(delays) >= 3
    for attempt, delay in enumerate(delays[:3]):
        raw = 0.5 * RetryPolicy.MULTIPLIER ** attempt  # jitter shaves down
        assert (1 - RetryPolicy.JITTER) * raw <= delay <= raw


def test_identical_seeds_identical_event_traces():
    """The acceptance bar: same scenario, same seed => same trace."""
    def run_once():
        import numpy as np

        from repro.jini import LookupService
        from repro.net import FixedLatency, Network
        from repro.sim import Environment

        env = Environment()
        net = Network(env, rng=np.random.default_rng(23),
                      latency=FixedLatency(0.001))
        lus = LookupService(Host(net, "lus-host"))
        lus.start()
        host, provider = start_echo(net)
        exerter = Exerter(Host(net, "client"))

        def proc():
            yield env.timeout(2.0)
            host.fail()
            yield env.process(exerter.exert(
                echo_task(deadline=Deadline.after(env.now, 12.0),
                          retries=3, timeout=1.0)))
            host.recover()
            yield env.timeout(15.0)
            yield env.process(exerter.exert(echo_task(name="again")))

        env.run(until=env.process(proc()))
        return resilience_events(net).trace

    first, second = run_once(), run_once()
    assert first == second
    assert len(first) > 0


# -- heal-time probe regression: RemoteError must release the probe slot ----------


class FlakyProvider(Tasker):
    """Echo provider whose ``boom`` op raises server-side."""

    SERVICE_TYPES = ("Echo",)

    def __init__(self, host, name="Echo", **kw):
        super().__init__(host, name, **kw)
        self.add_operation("echo", lambda ctx: ctx.get_value("arg/x"))
        self.add_operation("boom", self._boom)

    def _boom(self, ctx):
        raise RuntimeError("application bug, host is fine")


def test_remote_error_probe_does_not_wedge_breaker(grid):
    """Reproduces the stuck-at-heal bug: the breaker opens while the host
    is down; the host heals; the first (half-open) probe reaches the
    provider but fails *server-side* (RemoteError). The host answered, so
    the breaker must close and release the probe slot — before the fix the
    slot stayed pinned and every later call was refused."""
    env, net, lus = grid
    host = Host(net, "echo-host")
    provider = FlakyProvider(host)
    provider.start()
    exerter = Exerter(Host(net, "client"))

    def boom_task(name="boom-task"):
        ctx = ServiceContext()
        ctx.put_in_value("arg/x", 0)
        task = Task(name, Signature("Echo", "boom"), ctx)
        task.control.retries = 0
        task.control.invocation_timeout = 1.0
        task.control.provider_wait = 2.0
        return task

    def proc():
        yield env.timeout(2.0)
        host.fail()
        # Open the breaker: three timed-out attempts while the host is down.
        yield env.process(exerter.exert(
            echo_task(deadline=Deadline.after(env.now, 8.0),
                      retries=2, timeout=1.0)))
        assert exerter.breakers.snapshot() == {provider.service_id: "open"}
        host.recover()
        yield env.timeout(12.0)   # past reset_timeout: next call is a probe
        # The healed host answers the probe with a server-side failure.
        result = yield env.process(exerter.exert(boom_task()))
        assert result.is_failed
        assert exerter.breakers.snapshot() == {provider.service_id: "closed"}
        # The slot was released: an ordinary call goes straight through.
        t0 = env.now
        result = yield env.process(exerter.exert(echo_task(name="after", x=9)))
        return result, env.now - t0

    result, elapsed = env.run(until=env.process(proc()))
    assert result.is_done
    assert elapsed < 1.0


def test_drained_retry_budget_stops_retries(grid):
    """With no retry tokens, a failing exertion gets its first attempt
    and nothing more — the storm-amplification cap."""
    from repro.resilience import retry_budget_of
    env, net, lus = grid
    host, provider = start_echo(net)
    client = Host(net, "client")
    budget = retry_budget_of(client)
    budget.tokens = 0.0
    exerter = Exerter(client)
    events = resilience_events(net)
    seen = []
    events.subscribe(lambda name, fields: seen.append(name))

    def proc():
        yield env.timeout(2.0)
        host.fail()
        task = echo_task(retries=4, timeout=1.0)
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
    assert "retry_budget_exhausted" in seen
    assert "retry_scheduled" not in seen
    assert budget.denied >= 1 and budget.spent == 0


def test_successes_fund_the_retry_budget(grid):
    from repro.resilience import retry_budget_of
    env, net, lus = grid
    start_echo(net)
    client = Host(net, "client")
    budget = retry_budget_of(client)
    budget.tokens = 0.0
    exerter = Exerter(client)
    result = exert_after_settle(env, exerter, echo_task())
    assert result.is_done
    assert budget.tokens == pytest.approx(budget.DEPOSIT_RATIO)
