"""Health model: lease-renewal liveness drives UP/DEGRADED/DOWN."""

import json

import numpy as np
import pytest

from repro.jini import JoinManager, LookupService, Name, ServiceItem
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.observability import DEGRADED, DOWN, UP, health_monitor
from repro.observability.health import (
    R_HOST_DOWN,
    R_LEASE_AT_RISK,
    R_LEASE_EXPIRED,
    R_BREAKER_OPEN,
)
from repro.resilience import BreakerRegistry, CircuitBreaker
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
                  lease_duration=6.0):
    host = Host(net, host_name)
    ref = rpc_endpoint(host).export(DummyService(), f"svc:{host_name}")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name(name),))
    jm = JoinManager(host, item, lease_duration=lease_duration)
    jm.start()
    return host, item, jm


def test_healthy_federation_is_up(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    build_service(net)
    monitor = health_monitor(net)
    env.run(until=6.0)
    snap = monitor.snapshot()
    assert snap["federation"]["status"] == UP
    assert snap["providers"]["Svc"]["status"] == UP
    assert snap["nodes"]["svc-host"]["status"] == UP
    assert snap["nodes"]["svc-host"]["providers"] == ["Svc"]
    # LUS node shows up too (no providers of its own).
    assert snap["nodes"]["lus-host"]["status"] == UP


def test_partition_walks_up_degraded_down_and_back(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    build_service(net)
    monitor = health_monitor(net)
    env.run(until=5.0)
    assert monitor.model.status_of("provider:Svc") == UP

    net.partition(["svc-host"], ["lus-host"])
    env.run(until=10.0)  # renewals fail; lease is at risk but not yet expired
    assert monitor.model.status_of("provider:Svc") == DEGRADED
    env.run(until=14.0)  # lease lapsed, LUS reaped the registration
    assert monitor.model.status_of("provider:Svc") == DOWN
    assert monitor.model.status_of("node:svc-host") == DOWN

    net.heal_partition(["svc-host"], ["lus-host"])
    env.run(until=24.0)  # rediscovery + re-registration
    assert monitor.model.status_of("provider:Svc") == UP
    assert monitor.model.status_of("node:svc-host") == UP

    # The walk happened in order, with reasons on each edge.
    walk = [(t["from"], t["to"]) for t in monitor.model.transitions
            if t["entity"] == "provider:Svc"]
    assert walk == [("UNKNOWN", UP), (UP, DEGRADED), (DEGRADED, DOWN),
                    (DOWN, UP)]
    degraded = next(t for t in monitor.model.transitions
                    if t["entity"] == "provider:Svc" and t["to"] == DEGRADED)
    assert R_LEASE_AT_RISK in degraded["reasons"]
    down = next(t for t in monitor.model.transitions
                if t["entity"] == "provider:Svc" and t["to"] == DOWN)
    assert down["reasons"] == [R_LEASE_EXPIRED]


def test_graceful_departure_is_forgotten_not_down(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    _host, _item, jm = build_service(net)
    monitor = health_monitor(net)
    env.run(until=5.0)
    assert monitor.model.status_of("provider:Svc") == UP
    env.run(until=env.process(jm.terminate()))
    env.run(until=8.0)
    snap = monitor.snapshot()
    assert "Svc" not in snap["providers"]
    assert all(not (t["entity"] == "provider:Svc" and t["to"] == DOWN)
               for t in monitor.model.transitions)


def test_host_death_is_down_immediately(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    host, _item, _jm = build_service(net)
    monitor = health_monitor(net)
    env.run(until=5.0)
    host.fail()
    env.run(until=6.5)  # one tick later, well before the lease lapses
    assert monitor.model.status_of("provider:Svc") == DOWN
    snap = monitor.snapshot()
    assert snap["providers"]["Svc"]["reasons"] == [R_HOST_DOWN]
    assert snap["nodes"]["svc-host"]["reasons"] == [R_HOST_DOWN]


def test_open_breaker_degrades_provider(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    _host, item, _jm = build_service(net)
    monitor = health_monitor(net)
    caller = Host(net, "caller")
    breakers = BreakerRegistry()
    caller.shared["breaker_registry"] = breakers
    env.run(until=5.0)
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):  # opens now
        breakers.record_failure(item.service_id, env.now)
    env.run(until=6.5)
    snap = monitor.snapshot()
    assert snap["providers"]["Svc"]["status"] == DEGRADED
    assert R_BREAKER_OPEN in snap["providers"]["Svc"]["reasons"]


def test_status_gauges_feed_the_time_series(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    build_service(net)
    monitor = health_monitor(net)
    env.run(until=6.0)
    assert monitor.store.value("health.status{entity=federation}") == 0.0
    assert monitor.store.value("health.status{entity=provider:Svc}") == 0.0


def test_snapshot_is_json_serializable(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    build_service(net)
    monitor = health_monitor(net)
    env.run(until=6.0)
    dumped = json.dumps(monitor.snapshot(), sort_keys=True)
    assert '"federation"' in dumped and '"slos"' in dumped


def test_disabled_monitor_does_not_collect(env, net):
    LookupService(Host(net, "lus-host"), announce_interval=2.0).start()
    build_service(net)
    monitor = health_monitor(net)
    monitor.enabled = False
    env.run(until=6.0)
    assert monitor.store.collections == 0
    assert monitor.model.transitions == []


def test_health_monitor_is_per_network_singleton(env, net):
    assert health_monitor(net) is health_monitor(net)
