"""Property-based tests of kernel scheduling invariants."""

from hypothesis import given, strategies as st

from repro.sim import Environment, Store

delays = st.lists(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False), min_size=1, max_size=30)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(ds):
    env = Environment()
    fired = []

    def waiter(delay, index):
        yield env.timeout(delay)
        fired.append((env.now, index))

    for index, delay in enumerate(ds):
        env.process(waiter(delay, index))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(ds)


@given(delays)
def test_simultaneous_events_fifo_by_creation(ds):
    """Among equal fire times, creation order is preserved."""
    env = Environment()
    fired = []

    def waiter(delay, index):
        yield env.timeout(delay)
        fired.append((env.now, index))

    for index, delay in enumerate(ds):
        env.process(waiter(delay, index))
    env.run()
    for t in set(d for d in ds):
        indices = [i for when, i in fired if when == t]
        assert indices == sorted(indices)


@given(delays)
def test_clock_ends_at_max_delay(ds):
    env = Environment()
    for delay in ds:
        env.timeout(delay)
    env.run()
    assert env.now == max(ds)


@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1,
                max_size=40))
def test_store_conserves_items(items):
    """Everything put into a Store comes out exactly once, in order."""
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            got = yield store.get()
            out.append(got)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == items


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.floats(min_value=0.01, max_value=2.0)),
                min_size=1, max_size=20),
       st.integers(min_value=1, max_value=4))
def test_resource_never_exceeds_capacity(jobs, capacity):
    from repro.sim.resources import Resource
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = [0]

    def worker(hold):
        request = resource.request()
        yield request
        max_seen[0] = max(max_seen[0], len(resource.users))
        yield env.timeout(hold)
        resource.release(request)

    for _, hold in jobs:
        env.process(worker(hold))
    env.run()
    assert max_seen[0] <= capacity
    assert resource.users == []
    assert not resource._queue
