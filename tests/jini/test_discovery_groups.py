"""Discovery group scoping — administrative domains on one LAN."""

import pytest

from repro.net import Host
from repro.jini import JoinManager, LookupService, Name, ServiceItem, \
    ServiceTemplate
from repro.jini.discovery import LookupDiscovery


class Dummy:
    REMOTE_TYPES = ("SensorDataAccessor",)


def make_lus(net, host_name, groups):
    host = Host(net, host_name)
    lus = LookupService(host, groups=groups, announce_interval=3.0)
    lus.start()
    return lus


def make_client(net, host_name, groups):
    host = Host(net, host_name)
    disc = LookupDiscovery(host, groups=groups)
    disc.start()
    return host, disc


def test_client_only_discovers_matching_groups(env, net):
    lab = make_lus(net, "lab-lus", groups=("lab",))
    prod = make_lus(net, "prod-lus", groups=("prod",))
    _, lab_client = make_client(net, "lab-client", groups=("lab",))
    _, prod_client = make_client(net, "prod-client", groups=("prod",))
    env.run(until=10.0)
    assert set(lab_client.registrars) == {lab.lus_id}
    assert set(prod_client.registrars) == {prod.lus_id}


def test_multi_group_lus_serves_both(env, net):
    shared = make_lus(net, "shared-lus", groups=("lab", "prod"))
    _, lab_client = make_client(net, "lab-client", groups=("lab",))
    _, prod_client = make_client(net, "prod-client", groups=("prod",))
    env.run(until=10.0)
    assert shared.lus_id in lab_client.registrars
    assert shared.lus_id in prod_client.registrars


def test_wildcard_client_sees_everything(env, net):
    lab = make_lus(net, "lab-lus", groups=("lab",))
    prod = make_lus(net, "prod-lus", groups=("prod",))
    _, admin = make_client(net, "admin-client", groups=("*",))
    env.run(until=10.0)
    assert set(admin.registrars) == {lab.lus_id, prod.lus_id}


def test_locator_bypasses_groups(env, net):
    prod = make_lus(net, "prod-lus", groups=("prod",))
    host, lab_client = make_client(net, "lab-client", groups=("lab",))
    env.run(until=10.0)
    assert lab_client.registrars == {}
    lab_client.add_locator("prod-lus")
    env.run(until=11.0)
    assert prod.lus_id in lab_client.registrars


def test_services_in_separate_groups_are_isolated(env, net):
    """A lab service never shows up in the prod registry."""
    from repro.net import rpc_endpoint
    lab = make_lus(net, "lab-lus", groups=("lab",))
    prod = make_lus(net, "prod-lus", groups=("prod",))
    svc_host = Host(net, "svc-host")
    # Install a lab-scoped manager as the host's shared discovery, so the
    # join manager below inherits the scoping.
    scoped = LookupDiscovery(svc_host, groups=("lab",))
    scoped.start()
    svc_host.shared["lookup_discovery"] = scoped
    ep = rpc_endpoint(svc_host)
    ref = ep.export(Dummy(), "svc")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name("Lab-Sensor"),))
    jm = JoinManager(svc_host, item)
    jm.start()
    env.run(until=15.0)
    assert len(lab.lookup(ServiceTemplate.by_name("Lab-Sensor"), 5)) == 1
    assert len(prod.lookup(ServiceTemplate.by_name("Lab-Sensor"), 5)) == 0
