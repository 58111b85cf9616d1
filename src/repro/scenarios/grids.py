"""Parametric sensor grids for the scalability/overhead experiments.

Builds N temperature sensors either as SenSORCER services (ESPs, optionally
wired under a balanced CSP tree) or as bare direct-IP nodes, so the
benchmarks compare identical fleets across architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..sim import Environment
from ..net import FixedLatency, Host, LanLatency, Network
from ..jini import LookupService, lookup_discovery
from ..sensors import PhysicalEnvironment, TemperatureProbe
from ..sorcer import Jobber, Strategy
from ..core import CompositeSensorProvider, ElementarySensorProvider
from ..baselines import DirectSensorNode

__all__ = ["SensorGrid", "build_sensorcer_grid", "build_direct_grid",
           "grid_locations", "probe_location", "seed_locator_discovery"]

SPACING = 10.0


def grid_locations(n: int) -> list:
    """Deterministic sensor placements on a square-ish lattice."""
    side = int(np.ceil(np.sqrt(n)))
    return [((i % side) * SPACING, (i // side) * SPACING) for i in range(n)]


def probe_location(index: int) -> tuple:
    """Placement of probe ``index`` — the value
    ``grid_locations(index + 1)[index]`` would have, in O(1) instead of
    building the whole prefix lattice (which made fleet construction
    quadratic in N)."""
    side = int(np.ceil(np.sqrt(index + 1)))
    return ((index % side) * SPACING, (index // side) * SPACING)


def _probe(env, world, index, seed):
    return TemperatureProbe(
        env, f"probe-{index}", world, probe_location(index),
        rng=np.random.default_rng(seed + index), sensing_noise=0.0)


@dataclass
class SensorGrid:
    env: Environment
    net: Network
    world: PhysicalEnvironment
    lus: Optional[LookupService]
    sensors: list                 # ESPs or DirectSensorNodes
    locations: list
    root: Optional[CompositeSensorProvider] = None
    composites: list = field(default_factory=list)

    def settle(self, duration: float = 6.0) -> None:
        self.env.run(until=self.env.now + duration)

    def ground_truth_mean(self) -> float:
        return self.world.mean_over("temperature", self.locations,
                                    self.env.now)


def _base(seed: int, fixed_latency: Optional[float]):
    env = Environment()
    rng = np.random.default_rng(seed)
    latency = (FixedLatency(fixed_latency) if fixed_latency is not None
               else LanLatency(rng))
    net = Network(env, rng=rng, latency=latency)
    world = PhysicalEnvironment(seed=seed)
    return env, rng, net, world


def seed_locator_discovery(host: Host, lus_host: str = "lus-host") -> Host:
    """Put a host on unicast locator discovery (Jini's ``LookupLocator``):
    it probes the named LUS host directly instead of multicasting on the
    discovery group. Must run before anything else touches the host's
    shared :class:`~repro.jini.LookupDiscovery`. Returns the host."""
    lookup_discovery(host, probe_count=0).add_locator(lus_host)
    return host


def build_sensorcer_grid(n_sensors: int, seed: int = 11,
                         tree_fanout: Optional[int] = None,
                         strategy: Strategy = Strategy.PARALLEL,
                         sample_interval: float = 1.0,
                         fixed_latency: Optional[float] = None,
                         discovery: str = "multicast") -> SensorGrid:
    """N ESPs under one root composite.

    ``tree_fanout=None`` puts every sensor directly under the root (flat);
    otherwise a balanced tree of composites with the given fanout is built
    (each internal composite on its own host, mirroring subnet gateways).

    ``discovery`` selects how service hosts find the LUS: ``"multicast"``
    is the default protocol (every starting host multicasts probe rounds
    on the discovery group — with one host per sensor that is O(N^2)
    probe deliveries during fleet build), ``"locator"`` is Jini's unicast
    ``LookupLocator`` configuration (each host probes the known LUS host
    directly, O(N) build traffic — what a real large deployment uses, and
    what makes the 16k-sensor scale experiments tractable).
    """
    if discovery not in ("multicast", "locator"):
        raise ValueError(f"unknown discovery mode {discovery!r}")
    env, rng, net, world = _base(seed, fixed_latency)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()

    def make_host(name: str) -> Host:
        host = Host(net, name)
        if discovery == "locator":
            seed_locator_discovery(host)
        return host

    Jobber(make_host("jobber-host")).start()
    locations = grid_locations(n_sensors)
    sensors = []
    for index in range(n_sensors):
        name = f"Sensor-{index:03d}"
        esp = ElementarySensorProvider(
            make_host(f"esp-{index}"), name,
            _probe(env, world, index, seed),
            sample_interval=sample_interval)
        esp.start()
        sensors.append(esp)

    composites: list = []

    def make_composite(name: str) -> CompositeSensorProvider:
        csp = CompositeSensorProvider(make_host(f"{name}-host"), name,
                                      strategy=strategy)
        csp.start()
        composites.append(csp)
        return csp

    root = make_composite("Root")
    if tree_fanout is None:
        for esp in sensors:
            root.add_child(esp.service_id, esp.name)
    else:
        # Bottom-up balanced tree: group leaves into composites of
        # `tree_fanout`, then group those, until one layer fits the root.
        layer = [(esp.service_id, esp.name) for esp in sensors]
        level = 0
        while len(layer) > tree_fanout:
            next_layer = []
            for g, start in enumerate(range(0, len(layer), tree_fanout)):
                group = layer[start:start + tree_fanout]
                if len(group) == 1:
                    next_layer.append(group[0])
                    continue
                csp = make_composite(f"Group-L{level}-{g}")
                for service_id, name in group:
                    csp.add_child(service_id, name)
                next_layer.append((csp.service_id, csp.name))
            layer = next_layer
            level += 1
        for service_id, name in layer:
            root.add_child(service_id, name)
    return SensorGrid(env=env, net=net, world=world, lus=lus,
                      sensors=sensors, locations=locations, root=root,
                      composites=composites)


def build_direct_grid(n_sensors: int, seed: int = 11) -> SensorGrid:
    """N bare direct-IP sensor nodes (no registry, no services) on a 1 ms
    fixed-latency network."""
    env, rng, net, world = _base(seed, 0.001)
    locations = grid_locations(n_sensors)
    sensors = []
    for index in range(n_sensors):
        host = Host(net, f"node-{index}")
        sensors.append(DirectSensorNode(host, _probe(env, world, index, seed)))
    return SensorGrid(env=env, net=net, world=world, lus=None,
                      sensors=sensors, locations=locations)
