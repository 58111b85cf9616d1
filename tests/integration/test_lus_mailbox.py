"""LUS events delivered through a mailbox to a disconnected client.

The pattern the Fig 2 infrastructure exists for: a management client
registers interest in sensor arrivals, points the LUS at a mailbox slot,
goes offline, and collects the backlog when it returns.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.jini import (
    ALL_TRANSITIONS,
    EventMailbox,
    LookupService,
    ServiceTemplate,
    TRANSITION_NOMATCH_MATCH,
)
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.core import ElementarySensorProvider, SENSOR_DATA_ACCESSOR


def test_offline_client_collects_arrival_events():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(73),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=73)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    EventMailbox(Host(net, "mailbox-host"))
    mailbox = rpc_endpoint(net.hosts["mailbox-host"])._objects[
        "mailbox:mailbox-host"]
    client_host = Host(net, "client")
    client = rpc_endpoint(client_host)

    def register_interest():
        registration = yield client.call(mailbox.ref, "register", 600.0)
        # Tell the LUS to notify the *mailbox slot* about sensor arrivals.
        yield client.call(lus.ref, "notify",
                          ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR),
                          ALL_TRANSITIONS, registration.listener,
                          "mgmt", 600.0)
        return registration

    registration = env.run(until=env.process(register_interest()))
    client_host.fail()  # the management client goes offline

    # Three sensors join while the client is away.
    for index in range(3):
        probe = TemperatureProbe(env, f"p{index}", world, (index * 5.0, 0.0),
                                 rng=np.random.default_rng(index))
        ElementarySensorProvider(Host(net, f"esp-{index}"),
                                 f"Sensor-{index}", probe).start()
    env.run(until=15.0)

    client_host.recover()

    def collect():
        events = yield client.call(mailbox.ref, "collect",
                                   registration.registration_id, 100)
        return events

    events = env.run(until=env.process(collect()))
    arrivals = [e for e in events if e.transition == TRANSITION_NOMATCH_MATCH]
    assert len(arrivals) == 3
    assert all(e.handback == "mgmt" for e in events)
    names = {e.item.name() for e in arrivals}
    assert names == {"Sensor-0", "Sensor-1", "Sensor-2"}
