"""Kernel edge cases: conditions with failures, misuse thrown back into a
process, process identity semantics."""

import pytest

from repro.sim import AnyOf, Environment, Event, SimulationError


def test_any_of_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.any_of([env.process(bad()), env.timeout(100)])
        except ValueError:
            return "caught"

    p = env.process(parent())
    assert env.run(until=p) == "caught"


def test_any_of_with_already_triggered_event():
    env = Environment()
    ev = env.event()
    ev.succeed("ready")

    def parent():
        yield env.timeout(1)  # let ev become processed
        result = yield env.any_of([ev, env.timeout(100)])
        return (result, env.now)

    p = env.process(parent())
    result, when = env.run(until=p)
    assert when == 1


def test_all_of_with_mixed_processed_and_pending():
    env = Environment()
    early = env.timeout(0)

    def parent():
        yield env.timeout(1)
        yield env.all_of([early, env.timeout(2)])
        return env.now

    p = env.process(parent())
    assert env.run(until=p) == 3


def test_process_that_catches_a_yielded_non_event_error_carries_on():
    """Yielding a non-event throws SimulationError in through the ordinary
    failure path: a generator that catches it waits on what it yields
    next, finishes, and wakes its waiters."""
    env = Environment()

    def confused():
        try:
            yield 42
        except SimulationError as exc:
            yield env.timeout(1)
            return str(exc)

    p = env.process(confused())

    def waiter():
        return (yield p)

    assert env.run(until=env.process(waiter())) == (
        "process 'confused' yielded non-event 42")
    assert env.now == 1


def test_uncaught_non_event_error_fails_the_process_and_raises_from_run():
    env = Environment()

    def confused():
        yield 42

    p = env.process(confused())
    with pytest.raises(SimulationError, match="yielded non-event 42"):
        env.run()
    assert p.triggered and not p.ok


def test_unobserved_failure_raises_at_trigger_time():
    """A failure nobody is waiting on surfaces immediately from run() —
    errors are never silently swallowed (a late observer is too late)."""
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("lost")

    bad_proc = env.process(bad())

    def late_observer():
        yield env.timeout(10)
        yield bad_proc

    env.process(late_observer())
    with pytest.raises(KeyError):
        env.run()


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_run_until_failed_event_raises():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(1)
        ev.fail(RuntimeError("bad end"))

    env.process(trigger())
    with pytest.raises(RuntimeError, match="bad end"):
        env.run(until=ev)


def test_simultaneous_events_processed_in_creation_order():
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(5)
            order.append(tag)
        return proc

    for tag in range(10):
        env.process(make(tag)())
    env.run()
    assert order == list(range(10))


def test_zero_delay_timeout_still_asynchronous():
    env = Environment()
    order = []

    def proc():
        order.append("before")
        yield env.timeout(0)
        order.append("after")

    env.process(proc())
    order.append("scheduled")
    env.run()
    # The process body doesn't start until the simulation runs.
    assert order == ["scheduled", "before", "after"]
