#!/usr/bin/env python3
"""Air-vehicle fleet telemetry with self-healing provisioning.

The paper's conclusion plans "large-scale air vehicles distributed
applications"; this example models a small UAV fleet whose telemetry
aggregator is a Rio-provisioned composite:

  * every vehicle carries a temperature sensor service (plug-and-play:
    vehicles join and leave the network);
  * a provisioned composite "Fleet-Telemetry" averages the fleet;
  * a composition plan is saved and self-healing enabled, so when the
    cybernode hosting the composite is killed mid-flight, Rio re-provisions
    it on the surviving node and the façade automatically restores its
    composition and expression — no operator action;
  * a vehicle crash (host failure) is detected via lease expiry and the
    fleet continues with the remaining vehicles.

Run:  python examples/fault_tolerant_fleet.py
"""

import numpy as np

from repro.sim import Environment
from repro.net import Host, LanLatency, Network
from repro.jini import LookupService, ServiceTemplate
from repro.rio import Cybernode, ProvisionMonitor, QosCapability
from repro.sensors import PhysicalEnvironment, SunSpotDevice, SunSpotTemperatureProbe
from repro.sorcer import Jobber
from repro.core import (
    ElementarySensorProvider,
    SENSOR_DATA_ACCESSOR,
    SensorBrowser,
    SensorcerFacade,
)

VEHICLES = ("UAV-Alpha", "UAV-Bravo", "UAV-Charlie", "UAV-Delta")


def main() -> None:
    env = Environment()
    rng = np.random.default_rng(1903)
    net = Network(env, rng=rng, latency=LanLatency(rng))
    world = PhysicalEnvironment(seed=1903)

    LookupService(Host(net, "lus-host")).start()
    Jobber(Host(net, "jobber-host")).start()
    nodes = [Cybernode(Host(net, f"cybernode-{i}"), "Cybernode",
                       capability=QosCapability(compute_slots=4),
                       lease_duration=5.0).start() for i in range(2)]
    ProvisionMonitor(Host(net, "monitor-host"), poll_interval=1.0).start()

    vehicles = {}
    for index, name in enumerate(VEHICLES):
        device = SunSpotDevice(env, name.lower())
        probe = SunSpotTemperatureProbe(
            env, device, world, (index * 40.0, index * 15.0),
            rng=np.random.default_rng(index))
        esp = ElementarySensorProvider(Host(net, f"{name}-host"), name, probe,
                                       technology="sunspot",
                                       lease_duration=5.0)
        esp.start()
        vehicles[name] = esp

    facade = SensorcerFacade(Host(net, "facade-host"))
    facade.start()
    browser = SensorBrowser(Host(net, "browser-host"))
    env.run(until=6.0)

    print(f"fleet online: {', '.join(VEHICLES)}\n")

    # -- Provision the telemetry composite, compose the fleet, arm healing ----
    def provision_and_compose():
        created = yield from browser.create_service("Fleet-Telemetry")
        assigned = yield from browser.compose_service(
            "Fleet-Telemetry", list(VEHICLES))
        yield from browser.add_expression(
            "Fleet-Telemetry", "(a + b + c + d)/4")
        value = yield from browser.get_value("Fleet-Telemetry")
        # Save the logical network as a plan and let the façade keep the
        # network converged to it.
        plan = yield from browser.save_network_plan()
        yield from browser.enable_self_healing(plan)
        return created, assigned, value

    created, assigned, value = env.run(
        until=env.process(provision_and_compose()))
    accessor = browser.accessor

    def host_of(name):
        item = (yield from accessor.find_one(
            ServiceTemplate.by_name(name, SENSOR_DATA_ACCESSOR), wait=3.0))
        return item.service.host if item else None

    home = env.run(until=env.process(host_of("Fleet-Telemetry")))
    print(f"Fleet-Telemetry provisioned on {home}; fleet mean {value:.2f} C")

    # -- Kill the hosting cybernode -------------------------------------------
    victim = net.hosts[home]
    victim.fail()
    print(f"\n*** {home} crashed at t={env.now:.1f}s ***")
    env.run(until=env.now + 30.0)  # lease lapse + monitor convergence

    new_home = env.run(until=env.process(host_of("Fleet-Telemetry")))
    print(f"monitor re-provisioned Fleet-Telemetry on {new_home} "
          f"by t={env.now:.1f}s")
    # The replacement started empty, but the façade's healing loop has
    # already re-applied the saved plan — just read the value.
    value2 = env.run(until=env.process(browser.get_value("Fleet-Telemetry")))
    print(f"fleet mean after self-healing: {value2:.2f} C "
          f"(composition auto-restored by the façade)")

    # -- A vehicle drops out ----------------------------------------------------
    vehicles["UAV-Delta"].host.fail()
    print(f"\n*** UAV-Delta lost at t={env.now:.1f}s ***")
    env.run(until=env.now + 20.0)  # its lease lapses; network forgets it

    def degrade_gracefully():
        sensors = yield from browser.get_sensor_list()
        alive = [s["name"] for s in sensors if s["name"].startswith("UAV-")]
        # Re-provision a fresh aggregate over the survivors.
        yield from browser.create_service("Fleet-Telemetry-2")
        yield from browser.compose_service("Fleet-Telemetry-2", alive)
        yield from browser.add_expression("Fleet-Telemetry-2", "(a + b + c)/3")
        value = yield from browser.get_value("Fleet-Telemetry-2")
        return alive, value

    alive, value3 = env.run(until=env.process(degrade_gracefully()))
    print(f"survivors: {', '.join(sorted(alive))}")
    print(f"fleet mean over {len(alive)} vehicles: {value3:.2f} C")
    print(f"\nsimulated time {env.now:.1f}s, messages {net.stats.messages}, "
          f"bytes {net.stats.total_bytes:,}")


if __name__ == "__main__":
    main()
