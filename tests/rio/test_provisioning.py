"""ProvisionMonitor + Cybernode integration (E-FT / E-PROV substrate)."""

import pytest

from repro.net import Host
from repro.net.network import LinkDecision
from repro.observability import metrics_registry
from repro.jini import Name, ServiceTemplate
from repro.jini.events import TRANSITION_MATCH_NOMATCH
from repro.rio import (
    Cybernode,
    OperationalString,
    ProvisionMonitor,
    QosCapability,
    QosRequirement,
    ServiceElement,
)
from repro.sorcer import Tasker


class EchoProvider(Tasker):
    SERVICE_TYPES = ("Echo",)

    def __init__(self, host, name, attributes=(), **kw):
        super().__init__(host, name, attributes=attributes, **kw)
        self.add_operation("echo", lambda ctx: ctx.get_value("arg/x"))


def echo_factory(host, instance_name, attributes):
    return EchoProvider(host, instance_name, attributes=attributes,
                        lease_duration=5.0)


def make_cybernode(net, name, slots=4.0, tags=frozenset()):
    host = Host(net, f"{name}-host")
    node = Cybernode(host, name,
                     capability=QosCapability(compute_slots=slots, tags=tags),
                     lease_duration=5.0)
    node.start()
    return host, node


def make_monitor(net, **kwargs):
    host = Host(net, "monitor-host")
    monitor = ProvisionMonitor(host, **kwargs)
    monitor.start()
    return host, monitor


def monitor_count(net, what):
    return metrics_registry(net).value(f"monitor.{what}", monitor="Monitor")


def opstring_with(name="os", element_name="Echo-Service", planned=1,
                  qos=None, max_per_node=1):
    element = ServiceElement(
        name=element_name, factory=echo_factory, planned=planned,
        qos=qos if qos is not None else QosRequirement(load=1.0, memory_mb=8),
        max_per_node=max_per_node)
    return OperationalString(name, [element])


def live_named(lus, name):
    return lus.lookup(ServiceTemplate(attributes=(Name(name),)), 64)


def test_cybernode_registers_with_lus(grid):
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A")
    env.run(until=5.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Cybernode"), 10)) == 1


def test_deploy_provisions_planned_instance(grid):
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=10.0)
    assert len(live_named(lus, "Echo-Service")) == 1
    assert monitor_count(net, "provisioned") == 1


def test_planned_many_spread_over_nodes(grid):
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A")
    make_cybernode(net, "Cybernode-B")
    make_cybernode(net, "Cybernode-C")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with(planned=3, max_per_node=1))
    env.run(until=15.0)
    # Three instances, one per node (max_per_node=1).
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 64)
    assert len(items) == 3
    hosts = {item.service.host for item in items}
    assert len(hosts) == 3


def test_qos_tag_restricts_placement(grid):
    env, net, lus = grid
    make_cybernode(net, "Plain-Node")
    make_cybernode(net, "Gateway-Node", tags=frozenset({"sensor-gateway"}))
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with(
        qos=QosRequirement(load=1, memory_mb=8,
                           required_tags=frozenset({"sensor-gateway"}))))
    env.run(until=10.0)
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    assert len(items) == 1
    assert items[0].service.host == "Gateway-Node-host"


def test_no_capable_node_keeps_pending_then_converges(grid):
    env, net, lus = grid
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=8.0)
    assert len(live_named(lus, "Echo-Service")) == 0
    assert monitor_count(net, "provision_failures") > 0
    make_cybernode(net, "Late-Node")  # capacity arrives later
    env.run(until=20.0)
    assert len(live_named(lus, "Echo-Service")) == 1


def test_cybernode_failure_triggers_reprovision(grid):
    env, net, lus = grid
    ha, node_a = make_cybernode(net, "Cybernode-A")
    hb, node_b = make_cybernode(net, "Cybernode-B")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=10.0)
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    assert len(items) == 1
    victim_host = items[0].service.host
    (ha if victim_host == "Cybernode-A-host" else hb).fail()
    env.run(until=40.0)  # lease lapse (5s) + poll + instantiate
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    assert len(items) == 1
    assert items[0].service.host != victim_host
    assert monitor_count(net, "provisioned") == 2


def test_scale_up_and_down(grid):
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A", slots=8)
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with(planned=1, max_per_node=8))
    env.run(until=10.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 64)) == 1
    monitor.set_planned("os", "Echo-Service", 3)
    env.run(until=25.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 64)) == 3
    monitor.set_planned("os", "Echo-Service", 1)
    env.run(until=60.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 64)) == 1
    assert monitor_count(net, "released") == 2


def test_undeploy_releases_instances(grid):
    env, net, lus = grid
    hn, node = make_cybernode(net, "Cybernode-A")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=10.0)
    monitor.undeploy("os")
    env.run(until=30.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 10)) == 0
    assert node.used_slots == 0


def test_capacity_accounting_on_cybernode(grid):
    env, net, lus = grid
    hn, node = make_cybernode(net, "Cybernode-A", slots=2)
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with(planned=2, max_per_node=2))
    env.run(until=15.0)
    assert node.used_slots == 2.0
    status = node.status()
    assert status.hosted == 2
    # Node is full; a third instance cannot be placed.
    monitor.set_planned("os", "Echo-Service", 3)
    env.run(until=25.0)
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 64)) == 2


def test_duplicate_deploy_rejected(grid):
    env, net, lus = grid
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    with pytest.raises(ValueError):
        monitor.deploy(opstring_with())


def test_max_per_node_names_are_unique(grid):
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A", slots=8)
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with(planned=3, max_per_node=3))
    env.run(until=15.0)
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 64)
    names = sorted(item.name() for item in items)
    assert len(set(names)) == 3


def test_monitor_outage_delays_but_does_not_lose_repair(grid):
    """The monitor host is down when a cybernode dies; repair happens
    after the monitor recovers (its deployment state is in-process)."""
    env, net, lus = grid
    ha, node_a = make_cybernode(net, "Cybernode-A")
    hb, node_b = make_cybernode(net, "Cybernode-B")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=10.0)
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    victim_host = items[0].service.host
    mh.fail()  # the controller itself goes dark
    (ha if victim_host == "Cybernode-A-host" else hb).fail()
    env.run(until=50.0)
    # No repair while the monitor is down.
    assert len(lus.lookup(ServiceTemplate.by_type("Echo"), 10)) == 0
    mh.recover()
    env.run(until=90.0)
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    assert len(items) == 1
    assert items[0].service.host != victim_host


def lose_departure_event(net, dst, service_id):
    """Drop the first MATCH_NOMATCH service event for ``service_id`` cast
    to host ``dst``; returns the list the dropped event lands in."""
    dropped = []

    def link_filter(msg):
        if msg.kind == "service-event" and msg.dst == dst and not dropped:
            [event] = msg.payload[4]
            if (event.service_id == service_id
                    and event.transition == TRANSITION_MATCH_NOMATCH):
                dropped.append(event)
                return LinkDecision(drop=True)
        return None

    net.add_link_filter(link_filter)
    return dropped


def test_a_lost_departure_event_does_not_delay_repair(grid):
    """Service events are sent once. The monitor counts live instances at
    the registry on every poll, so losing a dead instance's MATCH_NOMATCH
    costs no time: repair lands a few polls after its lease lapses."""
    env, net, lus = grid
    ha, node_a = make_cybernode(net, "Cybernode-A")
    hb, node_b = make_cybernode(net, "Cybernode-B")
    mh, monitor = make_monitor(net)
    monitor.deploy(opstring_with())
    env.run(until=10.0)
    [victim] = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    dropped = lose_departure_event(net, "monitor-host", victim.service_id)
    (ha if victim.service.host == "Cybernode-A-host" else hb).fail()
    env.run(until=20.0)  # lease lapse (5 s) + a poll + instantiate
    assert len(dropped) == 1
    items = lus.lookup(ServiceTemplate.by_type("Echo"), 10)
    assert len(items) == 1
    assert items[0].service.host != victim.service.host


def test_multi_element_opstring(grid):
    """One operational string deploying two different service elements."""
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A", slots=8)
    mh, monitor = make_monitor(net)
    opstring = OperationalString("multi")
    opstring.add(ServiceElement(
        name="Frontend", factory=echo_factory, planned=2,
        qos=QosRequirement(load=1, memory_mb=8), max_per_node=2))
    opstring.add(ServiceElement(
        name="Backend", factory=echo_factory, planned=1,
        qos=QosRequirement(load=2, memory_mb=16), max_per_node=1))
    monitor.deploy(opstring)
    env.run(until=15.0)
    assert len(live_named(lus, "Frontend#0")) + \
        len(live_named(lus, "Frontend#1")) == 2
    assert len(live_named(lus, "Backend")) == 1
    # Load accounting: 2x1 + 1x2 slots.
    status = [n for n in net.hosts.values()]  # noqa: F841
    assert monitor_count(net, "provisioned") == 3


def test_opstring_duplicate_element_rejected(grid):
    env, net, lus = grid
    opstring = OperationalString("dup")
    opstring.add(ServiceElement(name="X", factory=echo_factory))
    with pytest.raises(ValueError):
        opstring.add(ServiceElement(name="X", factory=echo_factory))


def test_cybernode_release_unknown_service(grid):
    env, net, lus = grid
    hn, node = make_cybernode(net, "Cybernode-A")

    def proc():
        try:
            yield env.process(node.release("no-such-id"))
        except KeyError:
            return "rejected"

    assert env.run(until=env.process(proc())) == "rejected"


def test_provision_span_closed_when_a_failure_escapes_a_remote_hop(grid):
    # Regression: an unmodelled failure thrown in while _provision awaits a
    # remote hop used to leave its "provision:*" span open forever (found
    # by the RES001 lifecycle lint). The span must be closed on the way
    # out. (A RemoteError is modelled: the lookup absorbs it.)
    env, net, lus = grid
    make_cybernode(net, "Cybernode-A")
    host = Host(net, "monitor-host")
    monitor = ProvisionMonitor(host)
    env.run(until=5.0)  # let discovery find the lookup service
    opstring = opstring_with()
    gen = monitor._provision(opstring, opstring.elements[0])
    next(gen)  # suspend at the first remote hop; the span is now open
    provision_spans = [s for s in monitor.tracer.spans
                       if s.kind == "provision"]
    assert len(provision_spans) == 1
    assert provision_spans[0].ended_at is None
    with pytest.raises(KeyError):
        gen.throw(KeyError("unmodelled"))
    assert provision_spans[0].ended_at is not None
    assert provision_spans[0].status == "error"
