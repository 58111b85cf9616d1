"""EventMailbox and LeaseRenewalService."""

import pytest

from repro.net import Host, rpc_endpoint
from repro.jini import (
    EventMailbox,
    LeaseRenewalService,
    LookupService,
    Name,
    RemoteEvent,
    ServiceItem,
    ServiceTemplate,
    ALL_TRANSITIONS,
)


class Target:
    REMOTE_TYPES = ("RemoteEventListener",)

    def __init__(self):
        self.events = []

    def notify(self, event):
        self.events.append(event)


def make_mailbox(net):
    host = Host(net, "mailbox-host")
    box = EventMailbox(host)
    client_host = Host(net, "client")
    client = rpc_endpoint(client_host)
    return host, box, client_host, client


_FIRER_SEQ = [0]


def fire(env, net, listener_ref, n=3):
    """Deliver n events to the given listener ref from a helper host."""
    _FIRER_SEQ[0] += 1
    host = Host(net, f"firer-{_FIRER_SEQ[0]}")
    ep = rpc_endpoint(host)

    def proc():
        for i in range(n):
            yield ep.call(listener_ref, "notify",
                          RemoteEvent(source="src", event_id=1, sequence=i + 1))

    return env.process(proc())


def test_collect_stored_events(env, net):
    mh, box, ch, client = make_mailbox(net)

    def proc():
        reg = yield client.call(box.ref, "register", 600.0)
        yield fire(env, net, reg.listener, 3)
        yield env.timeout(1.0)
        events = yield client.call(box.ref, "collect", reg.registration_id, 100)
        return [e.sequence for e in events]

    p = env.process(proc())
    assert env.run(until=p) == [1, 2, 3]


def test_collect_respects_max_and_drains(env, net):
    mh, box, ch, client = make_mailbox(net)

    def proc():
        reg = yield client.call(box.ref, "register", 600.0)
        yield fire(env, net, reg.listener, 5)
        yield env.timeout(1.0)
        first = yield client.call(box.ref, "collect", reg.registration_id, 2)
        rest = yield client.call(box.ref, "collect", reg.registration_id, 100)
        return len(first), len(rest)

    p = env.process(proc())
    assert env.run(until=p) == (2, 3)


def test_enable_delivery_pushes_stored_and_future(env, net):
    mh, box, ch, client = make_mailbox(net)
    target = Target()
    target_ref = client.export(target, "target")

    def proc():
        reg = yield client.call(box.ref, "register", 600.0)
        yield fire(env, net, reg.listener, 2)
        yield env.timeout(0.5)
        yield client.call(box.ref, "enable_delivery", reg.registration_id, target_ref)
        yield env.timeout(0.5)
        backlog = len(target.events)
        yield fire(env, net, reg.listener, 1)
        yield env.timeout(0.5)
        return backlog, len(target.events)

    p = env.process(proc())
    assert env.run(until=p) == (2, 3)


def test_failed_push_requeues_the_undelivered_tail(env, net):
    """A push that fails keeps the failed event *and* everything queued
    behind it, in order (the tail used to be dropped)."""
    mh, box, ch, client = make_mailbox(net)
    target_host = Host(net, "target-host")
    target = Target()
    target_ref = rpc_endpoint(target_host).export(target, "target")

    def proc():
        reg = yield client.call(box.ref, "register", 600.0)
        yield fire(env, net, reg.listener, 3)
        target_host.fail()
        yield client.call(box.ref, "enable_delivery", reg.registration_id,
                          target_ref)
        yield env.timeout(10.0)  # the first push times out
        assert target.events == []
        target_host.recover()
        yield client.call(box.ref, "enable_delivery", reg.registration_id,
                          target_ref)
        yield env.timeout(1.0)
        return [e.sequence for e in target.events]

    p = env.process(proc())
    assert env.run(until=p) == [1, 2, 3]


def test_failed_push_leaves_every_event_collectable(env, net):
    mh, box, ch, client = make_mailbox(net)
    target_host = Host(net, "target-host")
    target_ref = rpc_endpoint(target_host).export(Target(), "target")

    def proc():
        reg = yield client.call(box.ref, "register", 600.0)
        yield fire(env, net, reg.listener, 3)
        target_host.fail()
        yield client.call(box.ref, "enable_delivery", reg.registration_id,
                          target_ref)
        yield env.timeout(10.0)
        events = yield client.call(box.ref, "collect", reg.registration_id, 100)
        return [e.sequence for e in events]

    p = env.process(proc())
    assert env.run(until=p) == [1, 2, 3]


def test_mailbox_lease_expiry_drops_registration(env, net):
    from repro.net import RemoteError
    mh, box, ch, client = make_mailbox(net)

    def proc():
        reg = yield client.call(box.ref, "register", 2.0)
        yield env.timeout(20.0)
        try:
            yield client.call(box.ref, "collect", reg.registration_id, 10)
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(proc())
    assert env.run(until=p) == "KeyError"


def test_renewal_service_keeps_lus_registration_alive(env, net):
    """A service whose host sleeps delegates renewal and stays registered."""
    lus_host = Host(net, "lus-host")
    lus = LookupService(lus_host)
    lus.start()
    norm_host = Host(net, "norm-host")
    norm = LeaseRenewalService(norm_host)

    svc_host = Host(net, "svc-host")
    ep = rpc_endpoint(svc_host)

    class Svc:
        REMOTE_TYPES = ("SensorDataAccessor",)

    ref = ep.export(Svc(), "svc")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name("Sleepy"),))

    def proc():
        reg = yield ep.call(lus.ref, "register", item, 5.0)
        set_id = yield ep.call(norm.ref, "create_set", 600.0)
        yield ep.call(norm.ref, "add_lease", set_id, lus.ref, reg.lease,
                      5.0, 100.0)
        svc_host.fail()  # the service itself goes quiet
        yield env.timeout(60.0)
        found = lus.lookup(ServiceTemplate.by_name("Sleepy"), 10)
        return len(found)

    # Run driver on another host since svc host dies.
    driver_host = Host(net, "driver")
    driver_ep = rpc_endpoint(driver_host)

    def driver():
        reg = yield driver_ep.call(lus.ref, "register", item, 5.0)
        set_id = yield driver_ep.call(norm.ref, "create_set", 600.0)
        yield driver_ep.call(norm.ref, "add_lease", set_id, lus.ref, reg.lease,
                             5.0, 100.0)
        yield env.timeout(60.0)
        return len(lus.lookup(ServiceTemplate.by_name("Sleepy"), 10))

    p = env.process(driver())
    assert env.run(until=p) == 1


def test_renewal_stops_after_until(env, net):
    lus_host = Host(net, "lus-host")
    lus = LookupService(lus_host)
    lus.start()
    norm_host = Host(net, "norm-host")
    norm = LeaseRenewalService(norm_host)
    driver_host = Host(net, "driver")
    ep = rpc_endpoint(driver_host)

    class Svc:
        REMOTE_TYPES = ("SensorDataAccessor",)

    ref = ep.export(Svc(), "svc")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name("Shortlived"),))

    def driver():
        reg = yield ep.call(lus.ref, "register", item, 5.0)
        set_id = yield ep.call(norm.ref, "create_set", 600.0)
        yield ep.call(norm.ref, "add_lease", set_id, lus.ref, reg.lease,
                      5.0, until=20.0)
        yield env.timeout(15.0)
        alive_mid = len(lus.lookup(ServiceTemplate.by_name("Shortlived"), 10))
        yield env.timeout(30.0)  # renewals stopped at t=20; lease lapses
        alive_end = len(lus.lookup(ServiceTemplate.by_name("Shortlived"), 10))
        return alive_mid, alive_end

    p = env.process(driver())
    assert env.run(until=p) == (1, 0)


def test_remove_set_stops_renewals(env, net):
    lus_host = Host(net, "lus-host")
    lus = LookupService(lus_host)
    lus.start()
    norm_host = Host(net, "norm-host")
    norm = LeaseRenewalService(norm_host)
    driver_host = Host(net, "driver")
    ep = rpc_endpoint(driver_host)

    class Svc:
        REMOTE_TYPES = ("SensorDataAccessor",)

    ref = ep.export(Svc(), "svc")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name("Abandoned"),))

    def driver():
        reg = yield ep.call(lus.ref, "register", item, 5.0)
        set_id = yield ep.call(norm.ref, "create_set", 600.0)
        yield ep.call(norm.ref, "add_lease", set_id, lus.ref, reg.lease,
                      5.0, until=1000.0)
        yield env.timeout(10.0)
        yield ep.call(norm.ref, "remove_set", set_id)
        yield env.timeout(30.0)
        return len(lus.lookup(ServiceTemplate.by_name("Abandoned"), 10))

    p = env.process(driver())
    assert env.run(until=p) == 0
