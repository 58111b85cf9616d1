"""Soak test: a 100-sensor deployment on a realistic (jittery, lossy) LAN.

Ties everything together at a size well past the paper's four sensors:
discovery converges, a fanout-5 composite tree answers fleet queries
against ground truth, sensors keep sampling, and the whole thing is
deterministic across runs.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import BernoulliLoss, Host, LanLatency, Network
from repro.jini import LookupService, ServiceTemplate
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Strategy, Task
from repro.core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    SENSOR_DATA_ACCESSOR,
)
from repro.scenarios import build_sensorcer_grid

N = 100


def build(seed=99):
    env = Environment()
    rng = np.random.default_rng(seed)
    net = Network(env, rng=rng, latency=LanLatency(rng))
    net.add_link_filter(BernoulliLoss(np.random.default_rng(seed + 1), 0.01))
    world = PhysicalEnvironment(seed=seed)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    locations = [((i % 10) * 10.0, (i // 10) * 10.0) for i in range(N)]
    esps = []
    for i, location in enumerate(locations):
        probe = TemperatureProbe(env, f"p{i}", world, location,
                                 rng=np.random.default_rng(seed + i),
                                 sensing_noise=0.0)
        esp = ElementarySensorProvider(Host(net, f"esp-{i}"),
                                       f"Sensor-{i:03d}", probe,
                                       sample_interval=5.0,
                                       lease_duration=20.0)
        esp.start()
        esps.append(esp)
    # Fanout-5 tree: 100 leaves -> 20 group composites -> 4 -> root.
    layer = [(esp.service_id, esp.name) for esp in esps]
    composites = []
    level = 0
    while len(layer) > 5:
        next_layer = []
        for g in range(0, len(layer), 5):
            group = layer[g:g + 5]
            # Hierarchical timeouts: a level's budget covers its
            # children's worst case (timeout + one retry).
            csp = CompositeSensorProvider(
                Host(net, f"csp-{level}-{g}"), f"Group-{level}-{g}",
                strategy=Strategy.PARALLEL, child_wait=8.0,
                child_timeout=3.0 * (4 ** level))
            csp.start()
            for service_id, name in group:
                csp.add_child(service_id, name)
            composites.append(csp)
            next_layer.append((csp.service_id, csp.name))
        layer = next_layer
        level += 1
    root = CompositeSensorProvider(Host(net, "root-host"), "Root",
                                   strategy=Strategy.PARALLEL, child_wait=8.0,
                                   child_timeout=3.0 * (4 ** level))
    root.start()
    for service_id, name in layer:
        root.add_child(service_id, name)
    composites.append(root)
    return env, net, world, lus, esps, root, locations


def test_hundred_sensor_grid_converges_and_answers():
    env, net, world, lus, esps, root, locations = build()
    env.run(until=10.0)
    items = lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 256)
    assert len(items) == N + 25  # 100 ESPs + 20 + 4 groups + root
    exerter = Exerter(Host(net, "client"))

    def query():
        task = Task("fleet", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                       service_id=root.service_id),
                    ServiceContext())
        task.control.invocation_timeout = 180.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(query()))
    assert result.is_done, result.exceptions
    value = result.get_return_value()
    # Equal-size groups: the tree mean equals the global mean.
    truth = world.mean_over("temperature", locations, env.now)
    assert abs(value - truth) < 1.0
    # The grid keeps living: samplers fill buffers.
    env.run(until=env.now + 20.0)
    assert all(len(esp.buffer) >= 3 for esp in esps)


def test_hundred_sensor_grid_deterministic():
    def run_once():
        env, net, world, lus, esps, root, locations = build(seed=5)
        env.run(until=10.0)
        exerter = Exerter(Host(net, "client"))

        def query():
            task = Task("fleet", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                           service_id=root.service_id),
                        ServiceContext())
            task.control.invocation_timeout = 180.0
            result = yield env.process(exerter.exert(task))
            return result.get_return_value(), env.now, net.stats.messages

    # noqa: the generator above returns; drive it.
        return run_query(env, query)

    def run_query(env, query):
        return env.run(until=env.process(query()))

    assert run_once() == run_once()
