"""ServiceProvider lifecycle details: attributes, operations, join helper."""

import pytest

from repro.net import Host
from repro.jini import Comment, Name, ServiceTemplate
from repro.sorcer import ServiceProvider, Tasker, join_service


class MiniProvider(Tasker):
    SERVICE_TYPES = ("Mini",)

    def __init__(self, host, name, **kw):
        super().__init__(host, name, **kw)
        self.add_operation("noop", lambda ctx: None)
        self.add_operation("other", lambda ctx: 1)


def test_operations_listing(grid):
    env, net, lus = grid
    provider = MiniProvider(Host(net, "p-host"), "Mini-1")
    assert provider.operations() == ["noop", "other"]


def test_service_types_mro_and_extras(grid):
    env, net, lus = grid
    class ExtraProvider(MiniProvider):
        SERVICE_TYPES = ("Extra",)

    provider = ExtraProvider(Host(net, "p-host"), "Mini-1")
    assert provider.service_types[0] == "Servicer"
    assert "Tasker" in provider.service_types
    assert "Mini" in provider.service_types
    assert "Extra" in provider.service_types
    # The exported proxy carries all of them.
    for t in provider.service_types:
        assert provider.ref.implements(t)


def test_attributes_include_name_and_extras(grid):
    env, net, lus = grid
    provider = MiniProvider(Host(net, "p-host"), "Mini-1",
                            attributes=(Comment("hello"),))
    attrs = provider.attributes()
    assert Name("Mini-1") in attrs
    assert Comment("hello") in attrs


def test_update_attributes_propagates(grid):
    env, net, lus = grid
    provider = MiniProvider(Host(net, "p-host"), "Mini-1",
                            attributes=(Comment("v1"),))
    provider.start()
    env.run(until=3.0)
    provider._extra_attributes = (Comment("v2"),)
    provider.update_attributes()
    env.run(until=6.0)
    items = lus.lookup(ServiceTemplate(attributes=(Comment("v2"),)), 5)
    assert len(items) == 1
    assert lus.lookup(ServiceTemplate(attributes=(Comment("v1"),)), 5) == []


def test_start_idempotent(grid):
    env, net, lus = grid
    provider = MiniProvider(Host(net, "p-host"), "Mini-1")
    provider.start()
    join1 = provider._join
    provider.start()
    assert provider._join is join1
    env.run(until=3.0)
    assert len(lus.lookup(ServiceTemplate.by_name("Mini-1"), 5)) == 1


def test_join_service_helper_registers_plain_object(grid):
    env, net, lus = grid
    host = Host(net, "obj-host")
    from repro.net import rpc_endpoint

    class Plain:
        REMOTE_TYPES = ("PlainThing",)

        def hello(self):
            return "hi"

    ref = rpc_endpoint(host).export(Plain(), "plain")
    join_service(host, ref, net.ids.uuid(), (Name("Plain-1"),))
    env.run(until=3.0)
    items = lus.lookup(ServiceTemplate.by_type("PlainThing"), 5)
    assert len(items) == 1
    assert items[0].name() == "Plain-1"
