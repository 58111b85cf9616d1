"""Failure injection across the whole stack: loss, partitions, flapping.

The paper (§VIII) claims the system "handles very well several types of
network and computer outages". These tests subject the full framework to
modelled outages and check it converges back.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import BernoulliLoss, FixedLatency, Host, Network
from repro.jini import LookupService, ServiceTemplate
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    SENSOR_DATA_ACCESSOR,
)


def build_lossy_grid(loss_probability, seed=41, n_sensors=3):
    env = Environment()
    rng = np.random.default_rng(seed)
    net = Network(env, rng=rng, latency=FixedLatency(0.001))
    net.add_link_filter(BernoulliLoss(np.random.default_rng(seed + 1),
                                      loss_probability))
    world = PhysicalEnvironment(seed=seed)
    lus = LookupService(Host(net, "lus-host"), announce_interval=3.0)
    lus.start()
    esps = []
    for index in range(n_sensors):
        probe = TemperatureProbe(env, f"p{index}", world, (index * 10.0, 0.0),
                                 rng=np.random.default_rng(index))
        esp = ElementarySensorProvider(
            Host(net, f"esp-{index}"), f"Sensor-{index}", probe,
            lease_duration=8.0)
        esp.start()
        esps.append(esp)
    csp = CompositeSensorProvider(Host(net, "csp-host"), "Aggregate")
    csp.start()
    for esp in esps:
        csp.add_child(esp.service_id, esp.name)
    return env, net, world, lus, esps, csp


def query_until_success(env, net, csp, attempts=10, timeout=4.0):
    exerter = Exerter(Host(net, f"client-{net.ids.sequence()}"))

    def proc():
        for attempt in range(attempts):
            task = Task("q", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                       service_id=csp.service_id),
                        ServiceContext())
            task.control.invocation_timeout = timeout
            result = yield env.process(exerter.exert(task))
            if result.is_done:
                return attempt, result.get_return_value()
            yield env.timeout(1.0)
        return attempts, None

    return env.run(until=env.process(proc()))


def test_network_with_5_percent_loss_still_converges():
    env, net, world, lus, esps, csp = build_lossy_grid(0.05)
    env.run(until=20.0)
    # All services registered despite lost discovery/renewal messages.
    items = lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 10)
    assert len(items) == 4
    attempts, value = query_until_success(env, net, csp)
    assert value is not None
    truth = world.mean_over("temperature", [(0, 0), (10, 0), (20, 0)], env.now)
    assert abs(value - truth) < 1.5


def test_network_with_20_percent_loss_eventually_answers():
    env, net, world, lus, esps, csp = build_lossy_grid(0.20)
    env.run(until=30.0)
    attempts, value = query_until_success(env, net, csp, attempts=20)
    assert value is not None


def test_partition_from_lus_heals():
    env, net, world, lus, esps, csp = build_lossy_grid(0.0)
    env.run(until=10.0)
    # Cut every sensor host off from the LUS; their leases lapse.
    for esp in esps:
        net.cut_link(esp.host.name, "lus-host")
    env.run(until=40.0)
    assert lus.lookup(ServiceTemplate(
        types=(SENSOR_DATA_ACCESSOR,),
        attributes=()), 10) is not None
    visible = {item.name() for item in
               lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 10)}
    assert not any(name.startswith("Sensor-") for name in visible)
    # Heal: join managers re-register after rediscovery.
    for esp in esps:
        net.heal_link(esp.host.name, "lus-host")
    env.run(until=80.0)
    visible = {item.name() for item in
               lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 10)}
    assert {"Sensor-0", "Sensor-1", "Sensor-2"} <= visible
    attempts, value = query_until_success(env, net, csp)
    assert value is not None


def test_flapping_sensor_host():
    """A host that crashes and recovers repeatedly ends up registered."""
    env, net, world, lus, esps, csp = build_lossy_grid(0.0, n_sensors=1)
    env.run(until=10.0)
    victim = esps[0].host
    for _ in range(4):
        victim.fail()
        env.run(until=env.now + 7.0)
        victim.recover()
        env.run(until=env.now + 7.0)
    env.run(until=env.now + 20.0)
    items = lus.lookup(ServiceTemplate.by_name("Sensor-0"), 5)
    assert len(items) == 1
    attempts, value = query_until_success(env, net, csp)
    assert value is not None


def test_composite_query_during_child_outage_fails_then_recovers():
    env, net, world, lus, esps, csp = build_lossy_grid(0.0)
    csp.child_wait = 1.0
    env.run(until=10.0)
    esps[1].host.fail()
    env.run(until=30.0)  # lease lapsed; child gone
    attempts, value = query_until_success(env, net, csp, attempts=1)
    assert value is None  # strict aggregation: missing child => failure
    esps[1].host.recover()
    env.run(until=60.0)
    attempts, value = query_until_success(env, net, csp)
    assert value is not None
