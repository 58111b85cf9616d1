"""InjectorEngine: fault windows flip real state, refcounts compose
overlapping windows, churn storms force lease expiry."""

import numpy as np

from repro.chaos import ChaosPlan, FaultEvent, InjectorEngine
from repro.net import FixedLatency, Host, Network
from repro.sim import Environment


def make_net():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(42),
                  latency=FixedLatency(0.001))
    return env, net


def plan_of(*events, horizon=30.0):
    return ChaosPlan(seed=0, scenario="unit", events=list(events),
                     horizon=horizon)


def half_second_traffic(env, sender):
    """One message to ``b`` at t = 0.5, 1.5, ..., 4.5: never on a window
    edge, so no send ties with a fault opening or closing."""
    yield env.timeout(0.5)
    for _ in range(5):
        sender.send("b", "p", kind="t", payload=None)
        yield env.timeout(1.0)


def test_crash_window_fails_and_recovers_host():
    env, net = make_net()
    host = Host(net, "a")
    engine = InjectorEngine(net)
    engine.apply(plan_of(FaultEvent("crash", "a", 2.0, 3.0)))
    env.run(until=1.0)
    assert host.up
    env.run(until=2.5)
    assert not host.up
    env.run(until=6.0)
    assert host.up
    assert engine.applied["crash"] == 1


def test_overlapping_crashes_refcount():
    """The host recovers only when the *last* overlapping window closes —
    shrinking may keep any subset of events, so windows must compose."""
    env, net = make_net()
    host = Host(net, "a")
    engine = InjectorEngine(net)
    engine.apply(plan_of(FaultEvent("crash", "a", 2.0, 4.0),
                         FaultEvent("crash", "a", 3.0, 6.0)))
    env.run(until=6.5)   # first window ended at 6.0
    assert not host.up   # second still holds the host down
    env.run(until=9.5)
    assert host.up


def test_partition_cuts_and_heals_symmetrically():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(env.now))
    engine = InjectorEngine(net)
    engine.apply(plan_of(FaultEvent("partition", "a|b", 1.0, 2.0)))
    env.process(half_second_traffic(env, a))
    env.run()
    # Sends at t=0.5 and t>=3.5 arrive; t=1.5, t=2.5 fall inside the cut.
    assert [round(t, 1) for t in inbox] == [0.5, 3.5, 4.5]


def test_asymmetric_partition_is_one_way():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    a_inbox, b_inbox = [], []
    a.open_port("p", lambda m: a_inbox.append(m.payload))
    b.open_port("p", lambda m: b_inbox.append(m.payload))
    engine = InjectorEngine(net)
    engine.apply(plan_of(FaultEvent("partition_asym", "a>b", 1.0, 5.0)))

    def traffic():
        yield env.timeout(2.0)   # inside the window
        a.send("b", "p", kind="t", payload="a-to-b")
        b.send("a", "p", kind="t", payload="b-to-a")

    env.process(traffic())
    env.run(until=4.0)
    assert b_inbox == []             # cut direction
    assert a_inbox == ["b-to-a"]     # reverse unaffected
    env.run(until=10.0)
    a.send("b", "p", kind="t", payload="healed")
    env.run()
    assert b_inbox == ["healed"]


def test_link_chaos_window_installs_and_removes_filter():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    inbox = []
    b.open_port("p", lambda m: inbox.append(env.now))
    engine = InjectorEngine(net, seed=9)
    engine.apply(plan_of(
        FaultEvent("link_chaos", "a|b", 1.0, 2.0,
                   {"drop_rate": 1.0})))
    env.process(half_second_traffic(env, a))
    env.run()
    assert [round(t, 1) for t in inbox] == [0.5, 3.5, 4.5]
    assert engine.link_stats()["dropped"] == 2
    assert net._link_filters == []   # removed at window end


def test_slowdown_delays_every_message_of_target():
    env, net = make_net()
    a, b = Host(net, "a"), Host(net, "b")
    arrivals = []
    b.open_port("p", lambda m: arrivals.append(env.now))
    engine = InjectorEngine(net, seed=9)
    engine.apply(plan_of(
        FaultEvent("slowdown", "a", 0.0, 10.0, {"delay": 0.5})))

    def traffic():
        yield env.timeout(1.0)
        a.send("b", "p", kind="t", payload=None)

    env.process(traffic())
    env.run(until=5.0)
    assert arrivals == [1.501]


def test_lease_churn_forces_expiry_each_interval():
    """Each storm beat force-expires the target's registration; the join
    manager re-registers, so the service keeps reappearing.

    The first beat and an LUS sweep share t = 8, so whether the lapsed
    registration is reaped then or on the next sweep is a same-instant
    order; a lapsed lease counts as gone either way."""
    from repro.scenarios.paper_lab import build_paper_lab
    lab = build_paper_lab(seed=2009)
    env = lab.env
    env.run(until=6.0)

    def registered():
        return [lease for item, lease in lab.lus.leased_items()
                if item.name() == "Neem-Sensor"]

    def live_count():
        return len([lease for lease in registered()
                    if lease.expiration > env.now])

    assert live_count() == 1
    engine = InjectorEngine(lab.net, lus=lab.lus)
    engine.apply(plan_of(
        FaultEvent("lease_churn", "Neem-Sensor", 8.0, 4.0,
                   {"interval": 1.0}), horizon=40.0))
    env.run(until=8.1)
    assert live_count() == 0      # just expired
    env.run(until=9.1)
    assert registered() == []     # reaped by the next sweep at the latest
    env.run(until=30.0)
    assert live_count() == 1      # re-registered after the storm
    assert engine.applied["lease_churn"] == 1
