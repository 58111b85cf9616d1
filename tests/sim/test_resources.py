"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Environment, SimulationError, Store
from repro.sim.resources import Resource


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("x")
        item = yield store.get()
        return item

    p = env.process(proc())
    assert env.run(until=p) == "x"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def getter():
        item = yield store.get()
        return (item, env.now)

    def putter():
        yield env.timeout(5)
        yield store.put("late")

    p = env.process(getter())
    env.process(putter())
    assert env.run(until=p) == ("late", 5)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def setup():
        for i in range(3):
            yield store.put(i)

    def getter():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(setup())
    env.process(getter())
    env.run()
    assert got == [0, 1, 2]


def test_store_predicate_get_skips_nonmatching():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("apple")
        yield store.put("banana")
        item = yield store.get(lambda x: x.startswith("b"))
        return (item, list(store.items))

    p = env.process(proc())
    item, remaining = env.run(until=p)
    assert item == "banana"
    assert remaining == ["apple"]


def test_store_predicate_get_waits_for_match():
    env = Environment()
    store = Store(env)

    def getter():
        item = yield store.get(lambda x: x == "target")
        return (item, env.now)

    def putter():
        yield store.put("other")
        yield env.timeout(3)
        yield store.put("target")

    p = env.process(getter())
    env.process(putter())
    assert env.run(until=p) == ("target", 3)


def test_store_put_triggers_at_once():
    """The store is unbounded: ``put`` stores the item and triggers its
    event before returning, whether or not a get is waiting."""
    env = Environment()
    store = Store(env)
    got = []

    def getter():
        got.append((yield store.get()))

    def putter():
        yield env.timeout(1)
        for item in ("a", "b"):
            put = store.put(item)
            assert put.triggered
            yield put

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == ["a"]
    assert list(store.items) == ["b"]


def test_store_get_cancel():
    env = Environment()
    store = Store(env)

    def proc():
        get_ev = store.get(lambda x: x == "never")
        yield env.timeout(1)
        get_ev.cancel()
        yield store.put("item")
        return list(store.items)

    p = env.process(proc())
    # The cancelled getter must not consume the item.
    assert env.run(until=p) == ["item"]


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    results = {}

    def getter(name):
        item = yield store.get()
        results[name] = item

    def putter():
        yield env.timeout(1)
        yield store.put("first")
        yield store.put("second")

    env.process(getter("g1"))
    env.process(getter("g2"))
    env.process(putter())
    env.run()
    assert results == {"g1": "first", "g2": "second"}


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grant_times = []

    def worker(hold):
        req = res.request()
        yield req
        grant_times.append(env.now)
        yield env.timeout(hold)
        res.release(req)

    env.process(worker(5))
    env.process(worker(5))
    env.process(worker(5))
    env.run()
    # Two run immediately, third waits for a release at t=5.
    assert grant_times == [0, 0, 5]


def test_resource_release_unrequested_rejected():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()
