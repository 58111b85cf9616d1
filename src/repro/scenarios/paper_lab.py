"""The SORCER-Lab deployment of the paper's §VI experiment (Fig 2).

Builds, on one simulated network:

* Jini infrastructure — lookup service, transaction manager, event mailbox,
  lease renewal service, lookup discovery service;
* Rio provisioning — two cybernodes and one provision monitor;
* four elementary sensor services, each wrapping the temperature probe of
  its own Sun SPOT (Neem / Jade / Coral / Diamond, like the paper);
* one composite sensor service ("Composite-Service");
* one SenSORCER façade.

Everything is returned in a :class:`PaperLab` so tests, examples and
benchmarks drive the very same deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import Environment
from ..net import Host, LanLatency, Network
from ..jini import (
    EventMailbox,
    LeaseRenewalService,
    LookupDiscoveryService,
    LookupService,
    Name,
    TransactionManager,
)
from ..rio import Cybernode, ProvisionMonitor, QosCapability
from ..sensors import PhysicalEnvironment, SunSpotDevice, SunSpotTemperatureProbe
from ..sorcer import Jobber, join_service
from ..core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    SensorBrowser,
    SensorcerFacade,
)
from ..jini.entries import Location

__all__ = ["PaperLab", "build_paper_lab", "six_step_experiment",
           "SENSOR_NAMES"]

#: The four Sun SPOT sensors of Fig 2.
SENSOR_NAMES = ("Neem-Sensor", "Jade-Sensor", "Coral-Sensor", "Diamond-Sensor")

#: Where each SPOT sits in the (synthetic) lab, metres from the door.
SENSOR_LOCATIONS = {
    "Neem-Sensor": (0.0, 0.0),
    "Jade-Sensor": (8.0, 2.0),
    "Coral-Sensor": (3.0, 9.0),
    "Diamond-Sensor": (12.0, 7.0),
}


@dataclass
class PaperLab:
    env: Environment
    net: Network
    world: PhysicalEnvironment
    rng: np.random.Generator
    lus: LookupService
    txn_manager: TransactionManager
    mailbox: EventMailbox
    lease_renewal: LeaseRenewalService
    discovery_service: LookupDiscoveryService
    monitor: ProvisionMonitor
    cybernodes: list
    jobber: Jobber
    sensors: dict
    devices: dict
    composite: CompositeSensorProvider
    facade: SensorcerFacade
    browser: SensorBrowser
    hosts: dict
    health: object  # HealthMonitor with the stock SLO set installed

    def settle(self, duration: float = 5.0) -> None:
        """Run long enough for discovery/join to converge."""
        self.env.run(until=self.env.now + duration)

    def run_six_steps(self) -> float:
        """Run :func:`six_step_experiment` through this lab's browser."""
        return self.env.run(until=self.env.process(
            six_step_experiment(self.browser), name="six-steps"))

    def sensor_locations(self, names=None) -> list:
        names = names if names is not None else list(self.sensors)
        return [SENSOR_LOCATIONS[name] for name in names]

    def ground_truth_mean(self, names) -> float:
        """Environment-truth average temperature across named sensors, now."""
        return self.world.mean_over("temperature",
                                    self.sensor_locations(names), self.env.now)


def six_step_experiment(browser):
    """The §VI six-step browser experiment (single source of truth — the
    CLI's ``experiment``/``status`` verbs and a snapshot/restore replay
    run this same body, so they are the same event sequence)."""
    yield from browser.compose_service(
        "Composite-Service",
        ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
    yield from browser.add_expression("Composite-Service", "(a + b + c)/3")
    yield from browser.create_service("New-Composite")
    yield from browser.compose_service(
        "New-Composite", ["Composite-Service", "Coral-Sensor"])
    yield from browser.add_expression("New-Composite", "(a + b)/2")
    value = yield from browser.get_value("New-Composite")
    yield from browser.get_info("New-Composite")
    yield from browser.refresh_topology()
    return value


def build_paper_lab(seed: int = 2009, sample_interval: float = 1.0,
                    sensor_names=SENSOR_NAMES) -> PaperLab:
    env = Environment()
    rng = np.random.default_rng(seed)
    net = Network(env, rng=rng, latency=LanLatency(rng))
    world = PhysicalEnvironment(seed=seed)
    hosts: dict = {}

    def host(name: str) -> Host:
        hosts[name] = Host(net, name)
        return hosts[name]

    # Jini infrastructure (the persimmon.cs.ttu.edu box of Fig 2).
    lus = LookupService(host("persimmon"), name="Lookup Service")
    lus.start()
    txn_manager = TransactionManager(host("txn-host"))
    join_service(hosts["txn-host"], txn_manager.ref, net.ids.uuid(),
                 (Name("Transaction Manager"),))
    mailbox = EventMailbox(host("mailbox-host"))
    join_service(hosts["mailbox-host"], mailbox.ref, net.ids.uuid(),
                 (Name("Event Mailbox"),))
    lease_renewal = LeaseRenewalService(host("renewal-host"))
    join_service(hosts["renewal-host"], lease_renewal.ref, net.ids.uuid(),
                 (Name("Lease Renewal Service"),))
    discovery_service = LookupDiscoveryService(host("lds-host"))
    join_service(hosts["lds-host"], discovery_service.ref, net.ids.uuid(),
                 (Name("Lookup Discovery Service"),))

    # Rio provisioning: two cybernodes + monitor, as in Fig 2.
    cybernodes = []
    for index in range(2):
        node = Cybernode(host(f"cybernode-{index}"), name="Cybernode",
                         capability=QosCapability(compute_slots=4.0,
                                                  memory_mb=1024.0),
                         lease_duration=5.0)
        node.start()
        cybernodes.append(node)
    monitor = ProvisionMonitor(host("monitor-host"), name="Monitor")
    monitor.start()

    # SORCER rendezvous peer so jobs can run.
    jobber = Jobber(host("jobber-host"))
    jobber.start()

    # Four Sun SPOT temperature sensors, one ESP each.
    sensors: dict = {}
    devices: dict = {}
    for name in sensor_names:
        short = name.split("-")[0].lower()
        device = SunSpotDevice(env, short)
        probe = SunSpotTemperatureProbe(
            env, device, world, SENSOR_LOCATIONS.get(name, (0.0, 0.0)),
            rng=np.random.default_rng(rng.integers(2**32)))
        esp = ElementarySensorProvider(
            host(f"{short}-host"), name, probe,
            sample_interval=sample_interval,
            location=Location(floor="3", room="310", building="CP TTU"),
            technology="sunspot")
        esp.start()
        sensors[name] = esp
        devices[name] = device

    # One composite and one façade.
    composite = CompositeSensorProvider(host("composite-host"),
                                        "Composite-Service")
    composite.start()
    facade = SensorcerFacade(host("facade-host"))
    facade.start()
    browser = SensorBrowser(host("browser-host"))

    # Management plane: health rollups + the stock SLO set, evaluated once
    # per simulated second (reads in-process state, no network traffic).
    from ..observability.health import default_slos, health_monitor
    health = health_monitor(net)
    for slo in default_slos():
        health.engine.add(slo)

    return PaperLab(
        env=env, net=net, world=world, rng=rng, lus=lus,
        txn_manager=txn_manager, mailbox=mailbox,
        lease_renewal=lease_renewal, discovery_service=discovery_service,
        monitor=monitor, cybernodes=cybernodes, jobber=jobber,
        sensors=sensors, devices=devices, composite=composite,
        facade=facade, browser=browser, hosts=hosts, health=health)
