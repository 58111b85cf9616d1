"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    NORMAL,
    URGENT,
    Environment,
    Event,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(5.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0]


def test_timeout_value():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="hello")
        return got

    p = env.process(proc())
    assert env.run(until=p) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("a", 3))
    env.process(proc("b", 1))
    env.process(proc("c", 2))
    env.run()
    assert order == [("b", 1), ("c", 2), ("a", 3)]


def test_same_time_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    for name in "abcde":
        env.process(proc(name))
    env.run()
    assert order == list("abcde")


def test_urgent_fires_before_normal_at_same_instant():
    env = Environment()
    fired = []
    env.timeout(1.0, priority=NORMAL).callbacks.append(
        lambda ev: fired.append("normal"))
    env.timeout(1.0, priority=URGENT).callbacks.append(
        lambda ev: fired.append("urgent"))
    env.run()
    assert fired == ["urgent", "normal"]


def test_run_until_time_advances_clock():
    env = Environment()

    def noop():
        yield env.timeout(1)

    env.process(noop())
    env.run(until=50.0)
    assert env.now == 50.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_wait_on_another_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "done"

    def parent():
        result = yield env.process(child())
        return (result, env.now)

    p = env.process(parent())
    assert env.run(until=p) == ("done", 2)


def test_wait_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1)
        return "early"

    c = env.process(child())

    def parent():
        yield env.timeout(10)
        result = yield c
        return result

    p = env.process(parent())
    assert env.run(until=p) == "early"


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        val = yield ev
        return val

    def trigger():
        yield env.timeout(3)
        ev.succeed("signal")

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(until=p) == "signal"
    assert env.now == 3


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(until=p) == "caught boom"


def test_uncaught_process_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("oops")

    env.process(bad())
    with pytest.raises(RuntimeError, match="oops"):
        env.run()


def test_failure_observed_by_parent_is_defused():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("oops")

    def parent():
        try:
            yield env.process(bad())
        except RuntimeError:
            return "handled"

    p = env.process(parent())
    assert env.run(until=p) == "handled"


def test_all_of_collects_values():
    env = Environment()

    def proc(delay, val):
        yield env.timeout(delay)
        return val

    def parent():
        results = yield env.all_of([
            env.process(proc(3, "a")),
            env.process(proc(1, "b")),
            env.process(proc(2, "c")),
        ])
        return (results, env.now)

    p = env.process(parent())
    values, when = env.run(until=p)
    assert sorted(values) == ["a", "b", "c"]
    assert when == 3


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def parent():
        results = yield env.all_of([])
        return results

    p = env.process(parent())
    assert env.run(until=p) == []


def test_any_of_returns_on_first():
    env = Environment()

    def proc(delay, val):
        yield env.timeout(delay)
        return val

    def parent():
        yield env.any_of([env.process(proc(5, "slow")), env.process(proc(1, "fast"))])
        return env.now

    p = env.process(parent())
    assert env.run(until=p) == 1


def test_all_of_fails_fast():
    env = Environment()

    def ok():
        yield env.timeout(10)

    def bad():
        yield env.timeout(1)
        raise ValueError("bad")

    def parent():
        try:
            yield env.all_of([env.process(ok()), env.process(bad())])
        except ValueError:
            return env.now

    p = env.process(parent())
    assert env.run(until=p) == 1


def test_run_until_event():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(7)
        ev.succeed("fired")

    env.process(trigger())
    assert env.run(until=ev) == "fired"
    assert env.now == 7


def test_run_until_event_never_fires():
    env = Environment()
    ev = env.event()

    def noop():
        yield env.timeout(1)

    env.process(noop())
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3)
    assert env.peek() == 3


def test_cancelled_timeout_is_never_dispatched():
    env = Environment()
    fired = []
    timer = env.timeout(3)
    timer.callbacks.append(fired.append)
    keeper = env.timeout(1)
    timer.cancel()
    timer.cancel()  # idempotent
    assert env.scheduler_stats()["cancels"] == 1
    assert env.scheduler_stats()["pending"] == 1
    env.run()
    assert fired == [] and env.now == 1
    assert env.scheduler_stats()["pops"] == 1
    keeper.cancel()  # fired already: a no-op
    assert env.scheduler_stats()["cancels"] == 1


def test_defused_failure_does_not_escape_run():
    env = Environment()
    handled = []

    def handler(event):
        handled.append(type(event.value))
        event.defuse()

    failing = env.event()
    failing.callbacks.append(handler)
    failing.fail(KeyError("dealt with"))
    env.run()
    assert handled == [KeyError]


def test_nested_processes():
    env = Environment()

    def grandchild():
        yield env.timeout(1)
        return 1

    def child():
        v = yield env.process(grandchild())
        yield env.timeout(1)
        return v + 1

    def parent():
        v = yield env.process(child())
        return v + 1

    p = env.process(parent())
    assert env.run(until=p) == 3
    assert env.now == 2


def test_chain_of_many_events_is_deterministic():
    env = Environment()
    trace = []

    def ping(n):
        for i in range(n):
            yield env.timeout(1)
            trace.append(("ping", env.now))

    def pong(n):
        for i in range(n):
            yield env.timeout(1)
            trace.append(("pong", env.now))

    env.process(ping(3))
    env.process(pong(3))
    env.run()
    assert trace == [
        ("ping", 1), ("pong", 1),
        ("ping", 2), ("pong", 2),
        ("ping", 3), ("pong", 3),
    ]
