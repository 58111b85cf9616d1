"""Latency models, random loss and per-host traffic accounting."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import BernoulliLoss, FixedLatency, Host, LanLatency, Network


def test_fixed_latency_ignores_size():
    model = FixedLatency(0.005)
    assert model.delay("a", "b", 10) == 0.005
    assert model.delay("a", "b", 1_000_000) == 0.005


def test_lan_latency_serialization_term():
    # Same seed, same link: equal jitter draws, so only size tells apart.
    small = LanLatency(np.random.default_rng(0)).delay("a", "b", 125)
    large = LanLatency(np.random.default_rng(0)).delay("a", "b", 1_250_125)
    assert large - small == pytest.approx(0.1)  # 10 Mbit at 100 Mbit/s


def test_lan_latency_jitter_positive_and_seeded():
    d1 = LanLatency(np.random.default_rng(5)).delay("a", "b", 100)
    d2 = LanLatency(np.random.default_rng(5)).delay("a", "b", 100)
    assert d1 == d2
    assert d1 > 0.0005  # base plus something


def test_lan_latency_link_draws_do_not_depend_on_send_order():
    """Each directed link draws from its own stream: which link sends
    first (for same-instant sends, the kernel's tie-break) moves no
    delay, and the caller's generator is not drawn from."""
    rng = np.random.default_rng(5)
    forward, backward = LanLatency(rng), LanLatency(np.random.default_rng(5))
    first = [forward.delay("x", "lus", 100), forward.delay("y", "lus", 100)]
    second = [backward.delay("y", "lus", 100),
              backward.delay("x", "lus", 100)]
    assert first == second[::-1]
    assert first[0] != first[1]
    assert rng.random() == np.random.default_rng(5).random()


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(np.random.default_rng(0), 1.5)


def test_per_host_byte_accounting():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1),
                  latency=FixedLatency(0.001))
    a, b, c = Host(net, "a"), Host(net, "b"), Host(net, "c")
    b.open_port("p", lambda m: None)
    a.send("b", "p", kind="x", payload="payload-1")
    a.send("b", "p", kind="x", payload="payload-2")
    env.run()
    stats_a = net.stats.host_bytes("a")
    stats_b = net.stats.host_bytes("b")
    stats_c = net.stats.host_bytes("c")
    assert stats_a["sent_messages"] == 2
    assert stats_a["received_messages"] == 0
    assert stats_b["received_messages"] == 2
    assert stats_a["sent"] == stats_b["received"] > 0
    assert stats_c["sent"] == stats_c["received"] == 0


def test_host_bytes_counted_even_if_receiver_drops():
    """The ingress link carries the bytes whether or not a port listens."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1),
                  latency=FixedLatency(0.001))
    a, b = Host(net, "a"), Host(net, "b")
    a.send("b", "nobody", kind="x", payload=1)
    env.run()
    assert net.stats.host_bytes("b")["received_messages"] == 1
