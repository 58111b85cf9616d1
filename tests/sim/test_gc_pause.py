"""``Environment.run`` pauses the cyclic collector while it dispatches.

The contract: the collector is off inside the dispatch loop, back on after
every way a run can end if it was on when the run started, and left off
for a caller (or an outer run) that had turned it off. A cycle made
during a run is collected by the first collection after it.
"""

import gc
import weakref

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and cannot leave it off."""
    gc.enable()
    yield
    gc.enable()


def test_the_collector_is_off_inside_a_run_and_on_after_a_normal_return():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(gc.isenabled())
        return "done"

    assert env.run(until=env.process(proc())) == "done"
    env.timeout(1.0)
    env.run()
    env.timeout(1.0)
    env.run(until=env.now + 5.0)
    assert seen == [False]
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_failed_target_raises():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=env.process(proc()))
    assert gc.isenabled()


def test_the_collector_is_back_on_after_the_queue_drains_before_the_target():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="queue drained"):
        env.run(until=env.event())
    assert gc.isenabled()


def test_a_run_nested_in_a_callback_leaves_the_collector_off():
    env = Environment()
    seen = []

    def nested(_event):
        env.run(until=2.0)
        seen.append(gc.isenabled())

    env.timeout(1.0).callbacks.append(nested)
    env.timeout(1.5).callbacks.append(lambda _e: seen.append(env.now))
    env.run()
    assert seen == [1.5, False]
    assert gc.isenabled()


def test_a_run_nested_in_a_callback_passes_the_outer_stop_on():
    """The outer target fires while a nested run dispatches: the nested
    run re-raises that stop, and the outer run returns the target's value
    at the target's instant. When both runs shared one stop exception,
    the nested run read its own empty stop record and died with an
    ``IndexError``."""
    env = Environment()
    target = env.timeout(2.0, value="outer")
    env.timeout(1.0).callbacks.append(lambda _e: env.run(until=3.0))
    assert env.run(until=target) == "outer"
    assert env.now == 2.0
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_finds_it_still_disabled():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    gc.disable()
    env.timeout(1.0)
    env.run()
    assert not gc.isenabled()
    with pytest.raises(RuntimeError):
        env.run(until=env.process(proc()))
    assert not gc.isenabled()


def test_no_collection_runs_while_a_run_allocates():
    """Far more live containers than the youngest generation's threshold
    are made inside the run; the collector never starts. The same
    allocations outside a run do start it."""
    env = Environment()
    threshold = gc.get_threshold()[0]
    starts = []

    def record(phase, _info):
        if phase == "start":
            starts.append(env.now)

    def allocate():
        return [[index] for index in range(20 * threshold)]

    def proc():
        kept = []
        for _ in range(5):
            yield env.timeout(1.0)
            kept.append(allocate())
        return len(kept)

    gc.callbacks.append(record)
    try:
        assert env.run(until=env.process(proc())) == 5
        assert starts == []
        kept = allocate()
        assert starts
    finally:
        gc.callbacks.remove(record)
    assert len(kept) == 20 * threshold


class _Node:
    def __init__(self):
        self.me = self


def test_a_cycle_made_in_a_run_is_gone_after_the_next_collection():
    env = Environment()
    refs = []

    def proc():
        node = _Node()
        refs.append(weakref.ref(node))
        del node
        yield env.timeout(1.0)
        return refs[0]() is not None

    assert env.run(until=env.process(proc())) is True
    gc.collect()
    assert refs[0]() is None


def test_a_run_that_raises_does_not_leave_its_stop_on_the_target():
    """A sibling process fails before the target fires: the first run
    raises its error, and a second run to the same target returns the
    target's value. When the first run left its stop callback on the
    target, the second died with an ``IndexError``."""
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def slow():
        yield env.timeout(2.0)
        return "done"

    target = env.process(slow())
    env.process(boom())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=target)
    assert env.run(until=target) == "done"


def test_a_run_that_drains_does_not_leave_its_stop_on_the_target():
    env = Environment()
    target = env.event()
    with pytest.raises(SimulationError, match="queue drained"):
        env.run(until=target)
    target.succeed(5)
    assert env.run(until=target) == 5
