"""E-PROV — QoS-aware placement: selection-policy ablation.

Deploys W=14 unit-load service instances over 6 heterogeneous cybernodes
(slots 2/2/4/4/8/8) under each selection policy and reports:

* **imbalance** — the population standard deviation of node utilization
  (lower = better spread);
* **max utilization** — the hottest node;
* **placement failures** — instantiate attempts refused for capacity.

Also verifies the QoS gate itself: a tagged element only ever lands on a
tagged node. Expected shape: least-loaded and capacity-weighted beat
uniform random and round-robin on imbalance (round-robin ignores that the
big nodes can take 4x the load of the small ones)."""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.observability import metrics_registry
from repro.jini import LookupService, ServiceTemplate
from repro.rio import (
    CapacityWeightedRandom,
    Cybernode,
    LeastLoaded,
    OperationalString,
    ProvisionMonitor,
    QosCapability,
    QosRequirement,
    RandomChoice,
    RoundRobin,
    ServiceElement,
)
from repro.sorcer import Tasker

NODE_SLOTS = (2, 2, 4, 4, 8, 8)
WORKLOAD = 14


class NullProvider(Tasker):
    SERVICE_TYPES = ("Null",)

    def __init__(self, host, name, attributes=(), **kw):
        super().__init__(host, name, attributes=attributes,
                         lease_duration=10.0, **kw)
        self.add_operation("noop", lambda ctx: None)


def null_factory(host, instance_name, attributes):
    return NullProvider(host, instance_name, attributes=attributes)


def run_policy(policy_name):
    env = Environment()
    rng = np.random.default_rng(77)
    net = Network(env, rng=rng, latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    nodes = []
    for index, slots in enumerate(NODE_SLOTS):
        node = Cybernode(Host(net, f"cyber-{index}"), f"Cybernode-{index}",
                         capability=QosCapability(compute_slots=float(slots),
                                                  memory_mb=4096),
                         lease_duration=10.0)
        node.start()
        nodes.append(node)
    policies = {
        "random": lambda: RandomChoice(np.random.default_rng(1)),
        "round-robin": RoundRobin,
        "least-loaded": LeastLoaded,
        "capacity-weighted": lambda: CapacityWeightedRandom(
            np.random.default_rng(1)),
    }
    monitor = ProvisionMonitor(Host(net, "monitor-host"),
                               policy=policies[policy_name](),
                               poll_interval=0.5)
    monitor.start()
    element = ServiceElement(
        name="Unit", factory=null_factory, planned=WORKLOAD,
        qos=QosRequirement(load=1.0, memory_mb=1.0),
        max_per_node=WORKLOAD)
    monitor.deploy(OperationalString("prov", [element]))
    env.run(until=60.0)
    placed = sum(len(node._hosted) for node in nodes)
    utilizations = np.array([node.used_slots / node.capability.compute_slots
                             for node in nodes])
    return {
        "placed": placed,
        "imbalance": float(utilizations.std()),
        "max_util": float(utilizations.max()),
        "failures": metrics_registry(net).value(
            "monitor.provision_failures", monitor=monitor.name),
    }


def test_policy_ablation(report):
    results = {name: run_policy(name)
               for name in ("random", "round-robin", "least-loaded",
                            "capacity-weighted")}
    rows = [[name, r["placed"], r["imbalance"], r["max_util"], r["failures"]]
            for name, r in results.items()]
    report(render_table(
        ["policy", "placed", "util stddev", "max util", "refusals"],
        rows,
        title=f"E-PROV — placing {WORKLOAD} unit services on nodes "
              f"with slots {NODE_SLOTS}"))
    for name, r in results.items():
        assert r["placed"] == WORKLOAD, f"{name} placed only {r['placed']}"
    # QoS-aware spreading beats uniform random; round-robin overloads the
    # small nodes (it ignores capacity), so least-loaded must beat it too.
    assert results["least-loaded"]["imbalance"] <= results["random"]["imbalance"]
    assert results["least-loaded"]["imbalance"] <= results["round-robin"]["imbalance"]


def test_qos_tag_gate(report):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(8),
                  latency=FixedLatency(0.001))
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    plain = Cybernode(Host(net, "plain"), "Plain",
                      capability=QosCapability(compute_slots=32),
                      lease_duration=10.0)
    plain.start()
    tagged = Cybernode(Host(net, "tagged"), "Tagged",
                       capability=QosCapability(
                           compute_slots=4,
                           tags=frozenset({"sensor-gateway"})),
                       lease_duration=10.0)
    tagged.start()
    monitor = ProvisionMonitor(Host(net, "monitor-host"),
                               poll_interval=0.5)
    monitor.start()
    element = ServiceElement(
        name="Gated", factory=null_factory, planned=4,
        qos=QosRequirement(load=1.0, memory_mb=1.0,
                           required_tags=frozenset({"sensor-gateway"})),
        max_per_node=4)
    monitor.deploy(OperationalString("gate", [element]))
    env.run(until=30.0)
    items = lus.lookup(ServiceTemplate.by_type("Null"), 16)
    hosts = [item.service.host for item in items]
    report(render_table(
        ["instance", "host"],
        [[f"Gated#{i}", host] for i, host in enumerate(sorted(hosts))],
        title="E-PROV — QoS tag gate (all instances must land on 'tagged')"))
    assert len(hosts) == 4
    assert all(host == "tagged" for host in hosts)
