"""Integration tests for Network + Host delivery semantics."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import (
    BernoulliLoss,
    FixedLatency,
    Host,
    HostDownError,
    Network,
    Protocol,
    UnreachableError,
)


def make_net(latency=0.001):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(42),
                  latency=FixedLatency(latency))
    return env, net


def test_unicast_delivery():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append((m.payload, env.now)))
    a.send("b", "p", kind="test", payload="hello")
    env.run()
    assert inbox == [("hello", 0.001)]


def test_duplicate_host_name_rejected():
    env, net = make_net()
    Host(net, "a")
    with pytest.raises(ValueError):
        Host(net, "a")


def test_unknown_destination_raises():
    env, net = make_net()
    a = Host(net, "a")
    with pytest.raises(UnreachableError):
        a.send("ghost", "p", kind="test")


def test_down_sender_cannot_send():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    a.fail()
    with pytest.raises(HostDownError):
        a.send("b", "p", kind="test")


def test_down_receiver_drops_message():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    b.fail()
    a.send("b", "p", kind="test", payload=1)
    env.run()
    assert inbox == []
    assert net.stats.dropped == 1


def test_receiver_crash_mid_flight_drops():
    env, net = make_net(latency=1.0)
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    a.send("b", "p", kind="test", payload=1)

    def crasher():
        yield env.timeout(0.5)
        b.fail()

    env.process(crasher())
    env.run()
    assert inbox == []
    assert net.stats.dropped == 1


def test_recovered_host_receives_again():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    b.fail()
    b.recover()
    a.send("b", "p", kind="test", payload="back")
    env.run()
    assert inbox == ["back"]


def test_unopened_port_drops():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    a.send("b", "nobody-listens", kind="test")
    env.run()
    assert net.stats.dropped == 1


def test_partition_blocks_both_directions():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox_a, inbox_b = [], []
    a.open_port("p", lambda m: inbox_a.append(m.payload))
    b.open_port("p", lambda m: inbox_b.append(m.payload))
    net.cut_link("a", "b")
    a.send("b", "p", kind="t", payload=1)
    b.send("a", "p", kind="t", payload=2)
    env.run()
    assert inbox_a == [] and inbox_b == []
    net.heal_link("a", "b")
    a.send("b", "p", kind="t", payload=3)
    env.run()
    assert inbox_b == [3]


def test_group_partition_helper():
    env, net = make_net()
    hosts = [Host(net, f"h{i}") for i in range(4)]
    net.partition(["h0", "h1"], ["h2", "h3"])
    assert not net.reachable("h0", "h2")
    assert not net.reachable("h1", "h3")
    assert net.reachable("h0", "h1")
    assert net.reachable("h2", "h3")
    net.heal_partition(["h0", "h1"], ["h2", "h3"])
    assert net.reachable("h0", "h3")


def test_multicast_delivers_to_members_not_sender():
    env, net = make_net()
    hosts = {n: Host(net, n) for n in ("a", "b", "c", "d")}
    received = {n: [] for n in hosts}
    for n, h in hosts.items():
        h.open_port("disc", lambda m, n=n: received[n].append(m.payload))
    for n in ("a", "b", "c"):
        hosts[n].join_group("g")
    sent = hosts["a"].multicast("g", "disc", kind="announce", payload="hi")
    env.run()
    assert sent == 2
    assert received["b"] == ["hi"]
    assert received["c"] == ["hi"]
    assert received["a"] == []
    assert received["d"] == []


def test_leave_group_stops_delivery():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    b.join_group("g")
    b.leave_group("g")
    a.multicast("g", "p", kind="t", payload=1)
    env.run()
    assert inbox == []


def test_traffic_stats_accumulate():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    b.open_port("p", lambda m: None)
    a.send("b", "p", kind="data", payload="x" * 100)
    a.send("b", "p", kind="data", payload="y" * 100)
    a.send("b", "p", kind="ctl", payload=1)
    env.run()
    snap = net.stats.snapshot()
    assert snap["messages"] == 3
    assert snap["by_kind"]["data"]["messages"] == 2
    assert snap["by_kind"]["ctl"]["messages"] == 1
    assert snap["header_bytes"] == 3 * 52  # three TCP messages
    assert snap["payload_bytes"] >= 208


def test_loss_model_drops_fraction():
    env = Environment()
    rng = np.random.default_rng(7)
    net = Network(env, rng=rng, latency=FixedLatency(0.001))
    net.add_link_filter(BernoulliLoss(rng, 0.5))
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    for i in range(200):
        a.send("b", "p", kind="t", payload=i)
    env.run()
    # About half get through (seeded, so the exact count is stable).
    assert 70 <= len(inbox) <= 130
    assert net.stats.dropped == 200 - len(inbox)


def test_loss_filter_drops_what_the_loss_model_dropped():
    """``BernoulliLoss`` as a link filter draws once per message that
    passed the partition check, exactly as ``Network(loss=...)`` did: the
    indices below were recorded on the commit that still had ``loss=``."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(7),
                  latency=FixedLatency(0.001))
    net.add_link_filter(BernoulliLoss(np.random.default_rng(11), 0.3))
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    for i in range(40):
        a.send("b", "p", kind="t", payload=i)
    env.run()
    assert sorted(set(range(40)) - set(inbox)) == [
        0, 3, 4, 6, 7, 13, 14, 21, 26, 29, 31, 32, 35, 37, 39]
    assert net.stats.dropped == 15


def test_delivery_order_preserved_with_fixed_latency():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    for i in range(10):
        a.send("b", "p", kind="t", payload=i)
    env.run()
    assert inbox == list(range(10))


def test_lan_latency_deterministic_with_seed():
    def run_once():
        env = Environment()
        net = Network(env, rng=np.random.default_rng(123))
        a, b = Host(net, "a"), Host(net, "b")
        times = []
        b.open_port("p", lambda m: times.append(env.now))
        for i in range(5):
            a.send("b", "p", kind="t", payload=i)
        env.run()
        return times

    assert run_once() == run_once()


def test_fail_callback_fires_once_and_recover_is_idempotent():
    env, net = make_net()
    a = Host(net, "a")
    events = []
    a.on_fail(lambda h: events.append("fail"))
    a.fail()
    a.fail()      # idempotent: no second callback
    a.recover()
    a.recover()   # idempotent
    assert events == ["fail"]
    assert a.up


def test_close_port_and_reopen():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(m.payload))
    with pytest.raises(ValueError):
        b.open_port("p", lambda m: None)  # duplicate
    b.close_port("p")
    a.send("b", "p", kind="t", payload=1)
    env.run()
    assert inbox == []  # closed port drops
    b.open_port("p", lambda m: inbox.append(m.payload))
    a.send("b", "p", kind="t", payload=2)
    env.run()
    assert inbox == [2]


def test_store_peek_all_nondestructive():
    from repro.sim import Environment, Store
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("x")
        yield store.put("y")
        snapshot = store.peek_all()
        item = yield store.get()
        return snapshot, item, store.peek_all()

    snapshot, item, after = env.run(until=env.process(proc()))
    assert snapshot == ["x", "y"]
    assert item == "x"
    assert after == ["y"]
