"""ESP push subscriptions — on-the-fly sensor data (§II.5)."""

import pytest

from repro.net import Host, rpc_endpoint
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import SENSOR_DATA_ACCESSOR, SensorReadingEvent

from .conftest import make_esp


class Listener:
    REMOTE_TYPES = ("RemoteEventListener",)

    def __init__(self):
        self.events = []

    def notify(self, event):
        self.events.append(event)


def facade_op(env, net, esp, selector, client_tag, **args):
    host = Host(net, f"sub-client-{client_tag}")
    ep = rpc_endpoint(host)
    listener = Listener()
    listener_ref = ep.export(listener, "listener")
    exerter = Exerter(host)

    def call(selector, **op_args):
        ctx = ServiceContext()
        for key, value in op_args.items():
            ctx.put_in_value(f"arg/{key}", value)
        task = Task(f"s-{selector}",
                    Signature(SENSOR_DATA_ACCESSOR, selector,
                              service_id=esp.service_id), ctx)
        result = yield env.process(exerter.exert(task))
        assert result.is_done, result.exceptions
        return result.get_return_value()

    return listener, listener_ref, call


def test_subscriber_receives_pushed_readings(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=1.0)
    listener, listener_ref, call = facade_op(env, net, esp, "subscribe", "a")

    def proc():
        yield env.timeout(2.0)
        sub = yield from call("subscribe", listener=listener_ref,
                              lease_duration=60.0)
        yield env.timeout(10.0)
        return sub

    sub = env.run(until=env.process(proc()))
    assert len(listener.events) >= 8
    event = listener.events[0]
    assert isinstance(event, SensorReadingEvent)
    assert event.sensor_name == "T1"
    assert event.reading.unit == "celsius"
    # Sequence numbers are gapless and increasing.
    assert [e.sequence for e in listener.events] == list(
        range(1, len(listener.events) + 1))


def test_min_interval_throttles(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=0.5)
    listener, listener_ref, call = facade_op(env, net, esp, "subscribe", "a")

    def proc():
        yield env.timeout(2.0)
        yield from call("subscribe", listener=listener_ref,
                        min_interval=2.0, lease_duration=60.0)
        yield env.timeout(10.0)

    env.run(until=env.process(proc()))
    # 10s at >= 2s spacing: at most ~6 pushes (not the ~20 samples taken).
    assert 3 <= len(listener.events) <= 6
    times = [e.reading.timestamp for e in listener.events]
    assert all(b - a >= 2.0 for a, b in zip(times, times[1:]))


def test_lease_expiry_stops_push(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=0.5)
    listener, listener_ref, call = facade_op(env, net, esp, "subscribe", "a")

    def proc():
        yield env.timeout(2.0)
        yield from call("subscribe", listener=listener_ref,
                        lease_duration=3.0)
        yield env.timeout(20.0)

    env.run(until=env.process(proc()))
    count = len(listener.events)
    assert count > 0
    # All events arrived within the lease window (+1 sweep).
    last = listener.events[-1].reading.timestamp
    assert last <= 2.0 + 3.0 + 1.0


def test_renew_extends_subscription(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=0.5)
    listener, listener_ref, call = facade_op(env, net, esp, "subscribe", "a")

    def proc():
        yield env.timeout(2.0)
        sub = yield from call("subscribe", listener=listener_ref,
                              lease_duration=3.0)
        for _ in range(6):
            yield env.timeout(1.5)
            yield from call("renewSubscription", lease_id=sub.lease_id,
                            lease_duration=3.0)
        yield env.timeout(1.0)

    env.run(until=env.process(proc()))
    last = listener.events[-1].reading.timestamp
    assert last > 10.0  # events kept flowing well past the original lease


def test_dead_subscriber_lease_lapses_quietly(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=0.5)
    listener, listener_ref, call = facade_op(env, net, esp, "subscribe", "a")
    client_host = net.hosts["sub-client-a"]

    def proc():
        yield env.timeout(2.0)
        yield from call("subscribe", listener=listener_ref,
                        lease_duration=5.0)
        yield env.timeout(2.0)

    env.run(until=env.process(proc()))
    client_host.fail()
    env.run(until=30.0)
    # Subscription reaped; the sampler keeps running unharmed.
    assert esp._subscribers == {}
    assert esp.buffer.last().timestamp > 25.0


def test_two_subscribers_independent(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "T1", sample_interval=1.0)
    l1, ref1, call1 = facade_op(env, net, esp, "subscribe", "a")
    l2, ref2, call2 = facade_op(env, net, esp, "subscribe", "b")

    def proc():
        yield env.timeout(2.0)
        yield from call1("subscribe", listener=ref1, lease_duration=60.0)
        yield from call2("subscribe", listener=ref2, min_interval=3.0,
                         lease_duration=60.0)
        yield env.timeout(9.0)

    env.run(until=env.process(proc()))
    assert len(l1.events) > len(l2.events) > 0
