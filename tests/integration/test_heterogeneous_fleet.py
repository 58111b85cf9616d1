"""Heterogeneous technologies under one composite — the §II.3 punchline.

One composite combines a Sun SPOT, a generic digital thermometer and a
capacitive hygrometer into a dew point. Three technologies, three probe
drivers, one unchanged `SensorDataAccessor` path — the inclusiveness the
paper demands of a sensor framework.
"""

import numpy as np

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, SensorType, ServiceTemplate
from repro.sensors import (
    HumidityProbe,
    PhysicalEnvironment,
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
            "humidity": (20.0, 0.0)}

#: Composed in this order, so a = digital, b = spot, c = humidity. The
#: dew point is the Lawrence approximation Td = T - (100 - RH) / 5.
CHILDREN = ("Digital-Sensor", "Spot-Sensor", "Humidity-Sensor")
DEW_POINT = "(a + b)/2 - (100 - c)/5"


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

    # Technology 3: a capacitive hygrometer.
    humidity = HumidityProbe(env, "hum-1", world, LOCATION["humidity"],
                             rng=np.random.default_rng(3), sensing_noise=0.0)
    ElementarySensorProvider(Host(net, "humidity-host"), "Humidity-Sensor",
                             humidity, technology="capacitive").start()

    composite = CompositeSensorProvider(Host(net, "csp-host"), "All-Tech")
    composite.start()
    return env, net, world, composite


def test_three_technologies_one_composite():
    env, net, world, composite = build()
    env.run(until=6.0)
    exerter = Exerter(Host(net, "client"))
    accessor = exerter.accessor

    def compose_and_read():
        # Find the ESPs generically: by interface, not by name.
        items = yield from accessor.find_items(
            ServiceTemplate(types=(SENSOR_DATA_ACCESSOR,)),
            max_matches=16, wait=5.0)
        by_name = {item.name(): item for item in items
                   if item.service_id != composite.service_id}
        assert sorted(by_name) == sorted(CHILDREN)
        for name in CHILDREN:
            composite.add_child(by_name[name].service_id, name)
        composite.set_expression(DEW_POINT)
        task = Task("read", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                      service_id=composite.service_id),
                    ServiceContext())
        task.control.invocation_timeout = 30.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(compose_and_read()))
    assert result.is_done, result.exceptions
    temperature = np.mean([
        world.sample("temperature", LOCATION["digital"], env.now),
        world.sample("temperature", LOCATION["spot"], env.now),
    ])
    relative_humidity = world.sample("humidity", LOCATION["humidity"], env.now)
    truth = temperature - (100.0 - relative_humidity) / 5.0
    assert abs(result.get_return_value() - truth) < 1.0


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
    assert {"sunspot", "onewire", "capacitive"} <= technologies
