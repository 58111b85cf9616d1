"""Direct polling / streaming baselines."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.baselines import (
    DirectPollingCollector,
    DirectSensorNode,
    StreamCollector,
    StreamingSensorNode,
)


@pytest.fixture
def setup():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(17),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=17)
    return env, net, world


def add_nodes(env, net, world, n, spacing=10.0):
    addresses = []
    for i in range(n):
        host = Host(net, f"node-{i}")
        probe = TemperatureProbe(env, f"probe-{i}", world, (i * spacing, 0.0),
                                 rng=np.random.default_rng(i), sensing_noise=0.0)
        DirectSensorNode(host, probe)
        addresses.append(host.name)
    return addresses


def test_poll_one_node(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 1)
    collector = DirectPollingCollector(Host(net, "collector"), addresses)

    def proc():
        value = yield from collector.poll_one("node-0")
        return value

    value = env.run(until=env.process(proc()))
    truth = world.sample("temperature", (0.0, 0.0), env.now)
    assert abs(value - truth) < 1.0


def test_collect_all_parallel(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 5)
    collector = DirectPollingCollector(Host(net, "collector"), addresses)

    def proc():
        values = yield from collector.collect_all()
        return values, env.now

    values, elapsed = env.run(until=env.process(proc()))
    assert len(values) == 5
    assert all(v is not None for v in values.values())
    # Parallel: roughly one round trip + probe latency, not five.
    assert elapsed < 0.2


def test_collect_sequential_slower(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 5)
    c1 = DirectPollingCollector(Host(net, "collector-par"), addresses)
    c2 = DirectPollingCollector(Host(net, "collector-seq"), addresses)

    def proc():
        t0 = env.now
        yield from c1.collect_all()
        parallel_time = env.now - t0
        t1 = env.now
        yield from c2.collect_all_sequential()
        sequential_time = env.now - t1
        return parallel_time, sequential_time

    parallel_time, sequential_time = env.run(until=env.process(proc()))
    assert sequential_time > 3 * parallel_time


def test_dead_node_times_out(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 2)
    net.hosts["node-1"].fail()
    collector = DirectPollingCollector(Host(net, "collector"), addresses)

    def proc():
        values = yield from collector.collect_all()
        return values

    values = env.run(until=env.process(proc()))
    assert values["node-0"] is not None
    assert values["node-1"] is None
    assert collector.timeouts == 1


def test_collect_average(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 4, spacing=100.0)
    collector = DirectPollingCollector(Host(net, "collector"), addresses)

    def proc():
        avg = yield from collector.collect_average()
        return avg

    avg = env.run(until=env.process(proc()))
    locations = [(i * 100.0, 0.0) for i in range(4)]
    truth = world.mean_over("temperature", locations, env.now)
    assert abs(avg - truth) < 1.0


def test_all_dead_raises(setup):
    env, net, world = setup
    addresses = add_nodes(env, net, world, 2)
    for address in addresses:
        net.hosts[address].fail()
    collector = DirectPollingCollector(Host(net, "collector"), addresses)

    def proc():
        try:
            yield from collector.collect_average()
        except RuntimeError:
            return "failed"

    assert env.run(until=env.process(proc())) == "failed"


def test_streaming_pushes_samples(setup):
    env, net, world = setup
    collector_host = Host(net, "collector")
    collector = StreamCollector(collector_host)
    for i in range(3):
        host = Host(net, f"node-{i}")
        probe = TemperatureProbe(env, f"p{i}", world, (i * 5.0, 0.0),
                                 rng=np.random.default_rng(i))
        StreamingSensorNode(host, probe, "collector").start()
    env.run(until=10.5)
    assert collector.received >= 27  # ~10 samples x 3 nodes
    assert len(collector.latest) == 3


def test_streaming_traffic_grows_per_sample(setup):
    """Every tiny sample pays the full TCP header — §II.1's complaint."""
    env, net, world = setup
    collector = StreamCollector(Host(net, "collector"))
    host = Host(net, "node-0")
    probe = TemperatureProbe(env, "p0", world, (0, 0),
                             rng=np.random.default_rng(0))
    StreamingSensorNode(host, probe, "collector").start()
    env.run(until=20.5)
    stream = net.stats.by_kind["direct-stream"]
    assert stream["messages"] >= 19
    # Headers dominate the tiny payload.
    assert stream["header_bytes"] > stream["payload_bytes"]
