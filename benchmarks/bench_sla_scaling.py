"""E-SLA — autoscaling extension: planned capacity follows load.

The paper's provisioning discussion (§IV.C) gives Rio "pluggable load
distribution and resource utilization analysis mechanisms"; the SLA scaler
is the natural closing of that loop (scale the planned count of a service
element between watermarks). A synthetic load curve steps up and back down;
the table shows the planned/live instance timeline.

Expected shape: live instances track the load with a lag of roughly
(check interval + provision time) per step, and return to the floor when
the load clears.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, ServiceTemplate
from repro.rio import (
    Cybernode,
    OperationalString,
    ProvisionMonitor,
    QosCapability,
    QosRequirement,
    ServiceElement,
    SlaScaler,
)
from repro.sorcer import Tasker


class Worker(Tasker):
    SERVICE_TYPES = ("Worker",)

    def __init__(self, host, name, attributes=(), **kw):
        super().__init__(host, name, attributes=attributes,
                         lease_duration=5.0, **kw)
        self.add_operation("work", lambda ctx: 1)


def worker_factory(host, instance_name, attributes):
    return Worker(host, instance_name, attributes=attributes)


#: (time, load) steps of the synthetic demand curve.
LOAD_CURVE = [(0.0, 0.0), (20.0, 12.0), (60.0, 0.0)]


def current_load(now):
    load = 0.0
    for t, value in LOAD_CURVE:
        if now >= t:
            load = value
    return load


def run():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(55),
                  latency=FixedLatency(0.001))
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    Cybernode(Host(net, "cyber-0"), "Cybernode",
              capability=QosCapability(compute_slots=16),
              lease_duration=5.0).start()
    monitor = ProvisionMonitor(Host(net, "monitor-host"), poll_interval=1.0)
    monitor.start()
    element = ServiceElement(name="Worker", factory=worker_factory, planned=1,
                             qos=QosRequirement(load=1, memory_mb=1),
                             max_per_node=16)
    monitor.deploy(OperationalString("sla", [element]))
    scaler = SlaScaler(Host(net, "sla-host"), monitor.ref, "sla", "Worker",
                       load_metric=lambda: current_load(env.now),
                       high_water=5.0, low_water=1.0)
    scaler.start()

    timeline = []

    def sampler():
        while env.now < 110.0:
            live = len(lus.lookup(ServiceTemplate.by_type("Worker"), 32))
            timeline.append([env.now, current_load(env.now),
                             scaler.planned, live])
            yield env.timeout(10.0)

    env.run(until=env.process(sampler()))
    return timeline


def test_sla_autoscaling(report):
    timeline = run()
    report(render_table(
        ["t (s)", "load", "planned", "live instances"], timeline,
        title="E-SLA — planned capacity tracking a load spike "
              "(watermarks 1/5, bounds 1..4)"))
    by_time = {row[0]: row for row in timeline}
    assert by_time[10.0][3] == 1          # baseline before the spike
    assert by_time[50.0][2] == 4          # scaled to the ceiling under load
    assert by_time[50.0][3] == 4
    assert by_time[100.0][2] == 1         # back to the floor after it
    assert by_time[100.0][3] == 1
