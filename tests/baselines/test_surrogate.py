"""Surrogate-architecture baseline (§III.B)."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.jini import LookupService, ServiceTemplate
from repro.sensors import PhysicalEnvironment, SunSpotDevice, \
    SunSpotTemperatureProbe, TemperatureProbe
from repro.baselines import DeviceLink, SurrogateHost


@pytest.fixture
def stack():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(29),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=29)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    sh = SurrogateHost(Host(net, "surrogate-host"))
    client = rpc_endpoint(Host(net, "client"))
    return env, net, world, lus, sh, client


def make_probe(env, world, n=0):
    return TemperatureProbe(env, f"dev-{n}", world, (n * 10.0, 0.0),
                            rng=np.random.default_rng(n), sensing_noise=0.0)


def test_surrogate_registers_as_sensor_accessor(stack):
    env, net, world, lus, sh, client = stack
    sh.activate("Device-0", make_probe(env, world))
    env.run(until=5.0)
    items = lus.lookup(ServiceTemplate.by_type("SensorDataAccessor"), 10)
    assert len(items) == 1
    assert items[0].name() == "Device-0"
    assert items[0].service.implements("DeviceSurrogate")


def test_every_read_crosses_the_device_link(stack):
    env, net, world, lus, sh, client = stack
    link = DeviceLink(env)
    surrogate = sh.activate("Device-0", make_probe(env, world), link)

    def proc():
        values = []
        for _ in range(5):
            value = yield client.call(surrogate.ref, "getValue", timeout=5.0)
            values.append(value)
        return values

    values = env.run(until=env.process(proc()))
    assert len(values) == 5
    assert link.requests == 5  # no caching anywhere
    truth = world.sample("temperature", (0, 0), env.now)
    assert abs(values[-1] - truth) < 1.0


def test_device_link_serializes_concurrent_requests(stack):
    """The mote's single radio is the §III.B bottleneck."""
    env, net, world, lus, sh, client = stack
    link = DeviceLink(env)
    probe = make_probe(env, world)
    probe.read_latency = 0.0
    surrogate = sh.activate("Device-0", probe, link)
    finish_times = []

    def one_call():
        yield client.call(surrogate.ref, "getValue", timeout=30.0)
        finish_times.append(env.now)

    def proc():
        procs = [env.process(one_call()) for _ in range(4)]
        yield env.all_of(procs)

    env.run(until=env.process(proc()))
    # 4 requests x one radio round trip each, serialized.
    assert max(finish_times) >= 4 * DeviceLink.ROUND_TRIP
    assert link.requests == 4


def test_surrogate_charges_the_device_battery(stack):
    env, net, world, lus, sh, client = stack
    device = SunSpotDevice(env, "spot")
    probe = SunSpotTemperatureProbe(env, device, world, (0, 0),
                                    rng=np.random.default_rng(1))
    surrogate = sh.activate("Spot-0", probe)

    def proc():
        for _ in range(10):
            yield client.call(surrogate.ref, "getValue", timeout=5.0)

    env.run(until=env.process(proc()))
    assert device.total_reads == 10  # one device wake-up per client query


def test_deactivate_removes_surrogate(stack):
    env, net, world, lus, sh, client = stack
    surrogate = sh.activate("Device-0", make_probe(env, world))
    env.run(until=5.0)

    def proc():
        yield env.process(sh.deactivate("Device-0"))

    env.process(proc())
    env.run(until=10.0)
    assert lus.lookup(ServiceTemplate.by_type("SensorDataAccessor"), 10) == []
    with pytest.raises(KeyError):
        env.run(until=env.process(sh.deactivate("Device-0")))


def test_duplicate_activation_rejected(stack):
    env, net, world, lus, sh, client = stack
    sh.activate("Device-0", make_probe(env, world))
    with pytest.raises(ValueError):
        sh.activate("Device-0", make_probe(env, world, 1))


def test_getinfo(stack):
    env, net, world, lus, sh, client = stack
    surrogate = sh.activate("Device-0", make_probe(env, world))

    def proc():
        info = yield client.call(surrogate.ref, "getInfo", timeout=5.0)
        return info

    info = env.run(until=env.process(proc()))
    assert info["service_type"] == "SURROGATE"
    assert info["quantity"] == "temperature"
