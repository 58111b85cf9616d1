"""Discovery protocols and join manager behaviour (plug-and-play, E-PNP)."""

import pytest

from repro.net import Host, rpc_endpoint
from repro.jini import (
    JoinManager,
    LookupService,
    Name,
    ServiceItem,
    ServiceTemplate,
    lookup_discovery,
)


class DummyService:
    REMOTE_TYPES = ("SensorDataAccessor",)

    def getValue(self):
        return 1.0


def make_lus(net, host_name="lus-host", **kwargs):
    host = Host(net, host_name)
    lus = LookupService(host, **kwargs)
    lus.start()
    return host, lus


def make_service(net, host_name, name="Svc"):
    host = Host(net, host_name)
    ep = rpc_endpoint(host)
    ref = ep.export(DummyService(), f"svc:{host_name}")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name(name),))
    return host, ep, item


def test_client_discovers_lus_via_probe(env, net):
    lus_host, lus = make_lus(net)
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    env.run(until=2.0)
    assert lus.lus_id in disc.registrars


def test_client_discovers_lus_via_announcement(env, net):
    # Client starts first; LUS arrives later and multicasts announcements.
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    env.run(until=5.0)  # client probes find nothing
    assert disc.registrars == {}
    lus_host, lus = make_lus(net, announce_interval=3.0)
    env.run(until=10.0)
    assert lus.lus_id in disc.registrars


def test_discovered_callback_fires_once(env, net):
    lus_host, lus = make_lus(net)
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    seen = []
    disc.on_discovered(lambda lus_id, ref: seen.append(lus_id))
    env.run(until=30.0)  # multiple probes + announcements
    assert seen == [lus.lus_id]


def test_discard_then_rediscover_from_announcement(env, net):
    lus_host, lus = make_lus(net, announce_interval=2.0)
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    env.run(until=2.0)
    disc.discard(lus.lus_id)
    assert disc.registrars == {}
    env.run(until=10.0)
    assert lus.lus_id in disc.registrars


def test_silent_lus_reaped_after_timeout(env, net):
    lus_host, lus = make_lus(net, announce_interval=2.0)
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    env.run(until=2.0)
    assert lus.lus_id in disc.registrars
    lus_host.fail()  # announcements stop
    env.run(until=60.0)
    assert disc.registrars == {}


def test_unicast_locator_discovery(env, net):
    # Partitioned multicast club: simulate by a client in no group — here we
    # just verify the direct path works without waiting for probes.
    lus_host, lus = make_lus(net)
    client_host = Host(net, "client")
    disc = lookup_discovery(client_host)
    disc.add_locator("lus-host")
    env.run(until=0.5)
    assert lus.lus_id in disc.registrars


def test_join_manager_registers_service(env, net):
    lus_host, lus = make_lus(net)
    svc_host, ep, item = make_service(net, "svc-host", "Neem-Sensor")
    jm = JoinManager(svc_host, item, lease_duration=30.0)
    jm.start()
    env.run(until=5.0)
    assert jm.registered_with == [lus.lus_id]
    assert len(lus.lookup(ServiceTemplate.by_name("Neem-Sensor"), 10)) == 1


def test_join_manager_renews_lease(env, net):
    lus_host, lus = make_lus(net)
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item, lease_duration=4.0)
    jm.start()
    env.run(until=60.0)  # many lease periods
    assert len(lus.lookup(ServiceTemplate.by_name("Svc"), 10)) == 1


def test_service_disappears_when_host_dies(env, net):
    lus_host, lus = make_lus(net)
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item, lease_duration=4.0)
    jm.start()
    env.run(until=5.0)
    assert len(lus.lookup_all()) == 1
    svc_host.fail()  # renewals stop; lease lapses
    env.run(until=20.0)
    assert len(lus.lookup_all()) == 0


def test_join_manager_reregisters_after_lus_restart(env, net):
    lus_host, lus = make_lus(net, announce_interval=2.0)
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item, lease_duration=10.0)
    jm.start()
    env.run(until=5.0)
    lus_host.fail()   # registry wiped
    env.run(until=8.0)
    lus_host.recover()
    env.run(until=30.0)
    assert len(lus.lookup(ServiceTemplate.by_name("Svc"), 10)) == 1


def test_join_manager_terminate_cancels_registration(env, net):
    lus_host, lus = make_lus(net)
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item)
    jm.start()
    env.run(until=5.0)
    assert len(lus.lookup_all()) == 1

    def stop():
        yield env.process(jm.terminate())

    env.process(stop())
    env.run(until=10.0)
    assert len(lus.lookup_all()) == 0


def test_join_manager_update_attributes(env, net):
    lus_host, lus = make_lus(net)
    svc_host, ep, item = make_service(net, "svc-host", "Before")
    jm = JoinManager(svc_host, item)
    jm.start()
    env.run(until=5.0)
    jm.update_attributes((Name("After"),))
    env.run(until=10.0)
    assert len(lus.lookup(ServiceTemplate.by_name("Before"), 10)) == 0
    assert len(lus.lookup(ServiceTemplate.by_name("After"), 10)) == 1


def test_join_manager_registers_with_multiple_lus(env, net):
    lus1_host, lus1 = make_lus(net, "lus-1")
    lus2_host, lus2 = make_lus(net, "lus-2")
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item)
    jm.start()
    env.run(until=5.0)
    assert sorted(jm.registered_with) == sorted([lus1.lus_id, lus2.lus_id])
    assert len(lus1.lookup_all()) == 1
    assert len(lus2.lookup_all()) == 1


def test_join_manager_requires_service_id(env, net):
    svc_host, ep, item = make_service(net, "svc-host")
    bad = ServiceItem(service_id="", service=item.service)
    with pytest.raises(ValueError):
        JoinManager(svc_host, bad)


def test_late_lus_gets_existing_services(env, net):
    svc_host, ep, item = make_service(net, "svc-host")
    jm = JoinManager(svc_host, item)
    jm.start()
    env.run(until=5.0)
    lus_host, lus = make_lus(net, announce_interval=2.0)
    env.run(until=15.0)
    assert len(lus.lookup_all()) == 1
