"""Heterogeneous technologies under one composite — the §II.3 punchline.

One composite averages a Sun SPOT, a generic digital thermometer, a
collaborating mote cluster and a legacy binary-protocol field station.
Four technologies, four probe drivers, one unchanged `SensorDataAccessor`
path — the inclusiveness the paper demands of a sensor framework.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, SensorType, ServiceTemplate
from repro.sensors import (
    LegacyFieldStation,
    LegacyProtocolProbe,
    PhysicalEnvironment,
    SensorCluster,
    SunSpotDevice,
    SunSpotTemperatureProbe,
    TemperatureProbe,
)
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    SENSOR_DATA_ACCESSOR,
)

LOCATION = {"spot": (0.0, 0.0), "digital": (10.0, 0.0),
            "cluster": (20.0, 0.0), "legacy": (30.0, 0.0)}


def build():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(71),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=71)
    LookupService(Host(net, "lus-host")).start()

    # Technology 1: a Sun SPOT.
    spot = SunSpotDevice(env, "spot-1")
    spot_probe = SunSpotTemperatureProbe(env, spot, world, LOCATION["spot"],
                                         rng=np.random.default_rng(1))
    ElementarySensorProvider(Host(net, "spot-host"), "Spot-Sensor",
                             spot_probe, technology="sunspot").start()

    # Technology 2: a plain digital thermometer.
    digital = TemperatureProbe(env, "dig-1", world, LOCATION["digital"],
                               rng=np.random.default_rng(2), sensing_noise=0.0)
    ElementarySensorProvider(Host(net, "digital-host"), "Digital-Sensor",
                             digital, technology="onewire").start()

    # Technology 3: a collaborating mote cluster.
    members = [TemperatureProbe(env, f"mote-{i}", world,
                                (LOCATION["cluster"][0] + i, 0.0),
                                rng=np.random.default_rng(10 + i),
                                sensing_noise=0.0)
               for i in range(3)]
    cluster = SensorCluster(env, "cluster-1", members)
    ElementarySensorProvider(Host(net, "cluster-host"), "Cluster-Sensor",
                             cluster, technology="mote-cluster").start()

    # Technology 4: a legacy binary-protocol station behind a gateway.
    station_host = Host(net, "station")
    LegacyFieldStation(station_host, world, LOCATION["legacy"])
    gateway = Host(net, "gateway")
    legacy = LegacyProtocolProbe(env, "legacy-1", gateway, "station")
    ElementarySensorProvider(gateway, "Legacy-Sensor", legacy,
                             technology="fs90-serial").start()

    composite = CompositeSensorProvider(Host(net, "csp-host"), "All-Tech")
    composite.start()
    return env, net, world, composite


def test_four_technologies_one_composite():
    env, net, world, composite = build()
    env.run(until=6.0)
    # Find the four ESPs generically: by measured quantity, not by name.
    exerter = Exerter(Host(net, "client"))
    accessor = exerter.accessor

    def compose_and_read():
        items = yield from accessor.find_items(
            ServiceTemplate(attributes=(SensorType(quantity="temperature"),)),
            max_matches=16, wait=5.0)
        names = sorted(item.name() for item in items
                       if item.service_id != composite.service_id)
        assert names == ["Cluster-Sensor", "Digital-Sensor", "Legacy-Sensor",
                         "Spot-Sensor"]
        for item in sorted(items, key=lambda i: i.name() or ""):
            if item.service_id != composite.service_id:
                composite.add_child(item.service_id, item.name())
        composite.set_expression("(a + b + c + d)/4")
        task = Task("read", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                      service_id=composite.service_id),
                    ServiceContext())
        task.control.invocation_timeout = 30.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(compose_and_read()))
    assert result.is_done, result.exceptions
    value = result.get_return_value()
    truths = [
        world.sample("temperature", LOCATION["spot"], env.now),
        world.sample("temperature", LOCATION["digital"], env.now),
        np.mean([world.sample("temperature",
                              (LOCATION["cluster"][0] + i, 0.0), env.now)
                 for i in range(3)]),
        world.sample("temperature", LOCATION["legacy"], env.now),
    ]
    assert abs(value - float(np.mean(truths))) < 1.0


def test_technology_entries_are_distinct():
    env, net, world, composite = build()
    env.run(until=6.0)
    lus_obj = None
    for host in net.hosts.values():
        endpoint = host.shared.get("rpc_endpoint")
        if endpoint is None:
            continue
        for obj in endpoint._objects.values():
            if type(obj).__name__ == "LookupService":
                lus_obj = obj
    technologies = set()
    for item in lus_obj.lookup_all():
        for attr in item.attributes:
            if isinstance(attr, SensorType) and attr.technology:
                technologies.add(attr.technology)
    assert {"sunspot", "onewire", "mote-cluster", "fs90-serial"} <= technologies
