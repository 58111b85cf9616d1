"""Management-plane walk of a network partition, at paper-lab scale.

One ESP host is partitioned from the rest of the lab. The health model
must walk it UP -> DEGRADED (renewals failing, lease at risk) -> DOWN
(lease reaped) and back to UP after the partition heals — with no
flapping, and with the SLO alert surfacing through the Jini event
mailbox so an offline operator can collect it later.
"""

from repro.net import rpc_endpoint
from repro.observability import DEGRADED, DOWN, UP, Slo
from repro.scenarios import build_paper_lab


def partitioned_lab(seed=11):
    lab = build_paper_lab(seed=seed)
    lab.health.engine.add(Slo(
        "neem-node-health", "health.status{entity=node:neem-host}",
        1.0, kind="value", window=1, for_windows=1,
        description="neem node must not be DOWN"))
    return lab


def test_partition_walks_lab_node_down_and_back():
    lab = partitioned_lab()
    lab.settle(6.0)
    others = [name for name in lab.hosts if name != "neem-host"]
    lab.net.partition(["neem-host"], others)
    lab.env.run(until=60.0)
    lab.net.heal_partition(["neem-host"], others)
    lab.env.run(until=95.0)

    walk = [(tr["from"], tr["to"]) for tr in lab.health.model.transitions
            if tr["entity"] == "provider:Neem-Sensor"]
    # The full liveness walk, each state visited exactly once: no flap.
    assert walk == [("UNKNOWN", UP), (UP, DEGRADED), (DEGRADED, DOWN),
                    (DOWN, UP)]
    assert lab.health.model.status_of("provider:Neem-Sensor") == UP
    assert lab.health.model.status_of("node:neem-host") == UP
    assert lab.health.model.status_of("federation") == UP

    # A single partitioned node degrades, but never downs, the federation.
    fed = [(tr["from"], tr["to"]) for tr in lab.health.model.transitions
           if tr["entity"] == "federation"]
    assert fed == [("UNKNOWN", UP), (UP, DEGRADED), (DEGRADED, UP)]


def test_alert_fires_within_one_window_of_lease_expiry():
    lab = partitioned_lab()
    lab.settle(6.0)
    others = [name for name in lab.hosts if name != "neem-host"]
    lab.net.partition(["neem-host"], others)
    lab.env.run(until=60.0)
    lab.net.heal_partition(["neem-host"], others)
    lab.env.run(until=95.0)

    down_t = next(tr["t"] for tr in lab.health.model.transitions
                  if tr["entity"] == "node:neem-host" and tr["to"] == DOWN)
    edges = [(a.state, a.t) for a in lab.health.engine.alerts
             if a.slo == "neem-node-health"]
    assert [state for state, _ in edges] == ["firing", "resolved"]
    fired_at = edges[0][1]
    # One SLO window (for_windows=1, 1 s evaluation interval) after DOWN.
    assert down_t <= fired_at <= down_t + 1.0
    # Resolution follows the heal, after the clear hysteresis.
    assert edges[1][1] > 60.0


def test_alerts_surface_through_the_event_mailbox():
    lab = partitioned_lab()
    client = rpc_endpoint(lab.browser.host)

    def subscribe():
        registration = yield client.call(lab.mailbox.ref, "register", 600.0)
        yield from lab.browser.subscribe_health_alerts(registration.listener)
        return registration

    registration = lab.env.run(until=lab.env.process(subscribe()))
    lab.settle(6.0)
    others = [name for name in lab.hosts if name != "neem-host"]
    lab.net.partition(["neem-host"], others)
    lab.env.run(until=60.0)
    lab.net.heal_partition(["neem-host"], others)
    lab.env.run(until=95.0)

    def collect():
        events = yield client.call(lab.mailbox.ref, "collect",
                                   registration.registration_id, 100)
        return events

    events = lab.env.run(until=lab.env.process(collect()))
    ours = [e for e in events if e.slo == "neem-node-health"]
    assert [e.state for e in ours] == ["firing", "resolved"]
    firing = ours[0]
    assert firing.signal == 2.0 and firing.threshold == 1.0
    assert firing.description == "neem node must not be DOWN"
    # Events carry the simulation timestamp of the alert edge, not of
    # delivery: an operator reconstructs the incident timeline offline.
    assert firing.t < ours[1].t <= 95.0
