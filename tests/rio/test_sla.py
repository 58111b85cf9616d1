"""SLA-driven autoscaling."""

import pytest

from repro.net import Host
from repro.jini import ServiceTemplate
from repro.rio import (
    Cybernode,
    OperationalString,
    ProvisionMonitor,
    QosCapability,
    QosRequirement,
    ServiceElement,
    SlaScaler,
)
from repro.observability import metrics_registry
from repro.sorcer import Tasker


class WorkerProvider(Tasker):
    SERVICE_TYPES = ("Worker",)

    def __init__(self, host, name, attributes=(), **kw):
        super().__init__(host, name, attributes=attributes,
                         lease_duration=5.0, **kw)
        self.add_operation("work", lambda ctx: 1)


def worker_factory(host, instance_name, attributes):
    return WorkerProvider(host, instance_name, attributes=attributes)


def deploy_stack(net, planned=1):
    Cybernode(Host(net, "cyber-0"), "Cybernode",
              capability=QosCapability(compute_slots=16),
              lease_duration=5.0).start()
    monitor = ProvisionMonitor(Host(net, "monitor-host"), poll_interval=0.5)
    monitor.start()
    element = ServiceElement(name="Worker", factory=worker_factory,
                             planned=planned,
                             qos=QosRequirement(load=1, memory_mb=1),
                             max_per_node=16)
    monitor.deploy(OperationalString("sla-os", [element]))
    return monitor


def count_workers(lus):
    return len(lus.lookup(ServiceTemplate.by_type("Worker"), 32))


def test_scaler_validation(grid):
    env, net, lus = grid
    monitor = deploy_stack(net)
    with pytest.raises(ValueError):
        SlaScaler(Host(net, "sla-host"), monitor.ref, "sla-os", "Worker",
                  lambda: 0.0, high_water=1.0, low_water=2.0)


def test_scale_out_under_load_and_back(grid):
    env, net, lus = grid
    monitor = deploy_stack(net)
    load = {"value": 0.0}
    scaler = SlaScaler(Host(net, "sla-host"), monitor.ref, "sla-os", "Worker",
                       load_metric=lambda: load["value"],
                       high_water=5.0, low_water=1.0)
    scaler.start()
    env.run(until=10.0)
    assert count_workers(lus) == 1

    load["value"] = 10.0  # sustained overload
    env.run(until=30.0)
    assert scaler.planned == 4
    assert count_workers(lus) == 4

    load["value"] = 0.0  # idle again
    env.run(until=80.0)
    assert scaler.planned == 1
    assert count_workers(lus) == 1
    # History records each scaling decision with its trigger load.
    directions = [target for _, _, target in scaler.history]
    assert directions == [2, 3, 4, 3, 2, 1]


def test_scaler_respects_bounds(grid):
    env, net, lus = grid
    monitor = deploy_stack(net)
    scaler = SlaScaler(Host(net, "sla-host"), monitor.ref, "sla-os", "Worker",
                       load_metric=lambda: 100.0,
                       high_water=5.0, low_water=1.0)
    scaler.start()
    env.run(until=40.0)
    assert scaler.planned == SlaScaler.MAX_PLANNED
    assert count_workers(lus) == SlaScaler.MAX_PLANNED


def test_monitor_reports_provision_shortfall(grid):
    """Planned beyond capacity leaves a non-zero monitor.shortfall gauge;
    trimming the plan back clears it."""
    env, net, lus = grid
    Cybernode(Host(net, "small-cyber"), "Cybernode",
              capability=QosCapability(compute_slots=2),
              lease_duration=5.0).start()
    monitor = ProvisionMonitor(Host(net, "monitor-host"), poll_interval=0.5)
    monitor.start()
    element = ServiceElement(name="Worker", factory=worker_factory,
                             planned=4,
                             qos=QosRequirement(load=1, memory_mb=1),
                             max_per_node=2)
    monitor.deploy(OperationalString("sla-os", [element]))
    env.run(until=10.0)
    registry = metrics_registry(net)
    assert count_workers(lus) == 2  # capacity-bound
    assert registry.value("monitor.shortfall", monitor="Monitor") == 2.0

    monitor.set_planned("sla-os", "Worker", 2)
    env.run(until=20.0)
    assert registry.value("monitor.shortfall", monitor="Monitor") == 0.0


def test_scaler_stop_freezes_plan(grid):
    env, net, lus = grid
    monitor = deploy_stack(net)
    load = {"value": 10.0}
    scaler = SlaScaler(Host(net, "sla-host"), monitor.ref, "sla-os", "Worker",
                       load_metric=lambda: load["value"],
                       high_water=5.0, low_water=1.0)
    scaler.start()
    env.run(until=12.0)
    frozen = scaler.planned
    scaler.stop()
    env.run(until=40.0)
    assert scaler.planned == frozen
