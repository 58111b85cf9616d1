"""Health-model recovery edges: a replacement provider reusing its name
on a different host, and the ordering of alert firing/clear edges."""

import numpy as np
import pytest

from repro.jini import JoinManager, LookupService, Name, ServiceItem
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.observability import DOWN, UP, Slo, health_monitor
from repro.observability.health import R_HOST_DOWN, default_slos
from repro.sim import Environment


class DummyService:
    REMOTE_TYPES = ("SensorDataAccessor",)

    def getValue(self):
        return 1.0


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, rng=np.random.default_rng(7),
                   latency=FixedLatency(0.001))


def build_service(net, name="Svc", host_name="svc-host",
                  lease_duration=6.0, host=None):
    host = host if host is not None else Host(net, host_name)
    ref = rpc_endpoint(host).export(DummyService(), f"svc:{host.name}")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name(name),))
    jm = JoinManager(host, item, lease_duration=lease_duration)
    jm.start()
    return host, item, jm


def transitions_of(monitor, entity):
    return [(t["t"], t["from"], t["to"])
            for t in monitor.model.transitions if t["entity"] == entity]


def test_replacement_on_different_host_recovers_same_entity(env, net):
    """Rio semantics: the provider is the *name*. When the original host
    dies and a replacement with the same name joins from another host, the
    model must close the incident on the one logical entity — DOWN -> UP —
    not invent a second entity or stay DOWN on the old host."""
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    host_a, _item, _jm = build_service(net, name="Rio-Svc",
                                       host_name="host-a")
    monitor = health_monitor(net)
    for slo in default_slos():
        monitor.engine.add(slo)

    def scenario():
        yield env.timeout(6.0)
        assert monitor.model.status_of("provider:Rio-Svc") == UP
        host_a.fail()
        # Renewals stop with the host; wait out lease expiry so the name
        # frees up (no name ambiguity: one live registration at a time).
        yield env.timeout(6.0)
        assert monitor.model.status_of("provider:Rio-Svc") == DOWN
        # Mid-SLO-window (federation-health is firing by now), the
        # provisioner brings a same-named replacement up elsewhere.
        build_service(net, name="Rio-Svc", host_name="host-b")
        yield env.timeout(8.0)

    env.run(until=env.process(scenario()))
    assert monitor.model.status_of("provider:Rio-Svc") == UP
    # One entity throughout: its transition log closes the incident.
    moves = transitions_of(monitor, "provider:Rio-Svc")
    assert [(f, t) for _t, f, t in moves] == [
        ("UNKNOWN", "UP"), ("UP", "DOWN"), ("DOWN", "UP")]
    # No name@host split entities appeared.
    assert not [e for e in monitor.model._status if e.startswith(
        "provider:Rio-Svc@")]
    # The tracked record followed the service to its new host.
    assert monitor.model._providers["Rio-Svc"].node == "host-b"
    down = [t for t in monitor.model.transitions
            if t["entity"] == "provider:Rio-Svc" and t["to"] == DOWN]
    assert down[0]["reasons"] == [R_HOST_DOWN]


def test_node_entity_recovers_with_replacement_host(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    host_a, _item, _jm = build_service(net, name="Rio-Svc",
                                       host_name="host-a")
    monitor = health_monitor(net)

    def scenario():
        yield env.timeout(6.0)
        host_a.fail()
        yield env.timeout(6.0)
        build_service(net, name="Rio-Svc", host_name="host-b")
        yield env.timeout(8.0)

    env.run(until=env.process(scenario()))
    # The new node is tracked and UP; federation recovered.
    assert monitor.model.status_of("node:host-b") == UP
    assert monitor.model.status_of("federation") == UP


def test_alert_clear_ordering(env, net):
    """Alert edges must come out in (time, registration) order, resolve
    only after Slo.CLEAR_WINDOWS healthy evaluations, and reach subscribers
    in exactly the emission order the alerts list records."""
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    host_a, _item, _jm = build_service(net, name="Rio-Svc",
                                       host_name="host-a")
    monitor = health_monitor(net)
    for slo in default_slos():
        monitor.engine.add(slo)
    monitor.engine.add(Slo(
        "svc-health", "health.status{entity=provider:Rio-Svc}", 1.0,
        kind="value", window=1, for_windows=1,
        description="Rio-Svc must not be DOWN"))
    seen = []
    monitor.engine.subscribe(lambda alert: seen.append(alert))

    def scenario():
        yield env.timeout(6.0)
        host_a.fail()
        yield env.timeout(8.0)
        build_service(net, name="Rio-Svc", host_name="host-b")
        yield env.timeout(10.0)

    env.run(until=env.process(scenario()))
    health_alerts = [a for a in monitor.engine.alerts
                     if a.slo == "svc-health"]
    assert [a.state for a in health_alerts] == ["firing", "resolved"]
    firing, resolved = health_alerts
    assert resolved.t > firing.t
    # CLEAR_WINDOWS=2: the resolve lags recovery by at least one extra
    # evaluation window beyond the first healthy one.
    recovery_t = [t["t"] for t in monitor.model.transitions
                  if t["entity"] == "federation" and t["to"] == UP][-1]
    assert resolved.t >= recovery_t + monitor.INTERVAL
    # Subscribers saw exactly what the log recorded, in order.
    assert seen == monitor.engine.alerts
    # Nothing is left firing after recovery.
    assert monitor.engine.firing() == []
