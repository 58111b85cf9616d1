"""E-PNP — plug-and-play: how fast services appear, and how the network
recovers a restarted registry.

* **join visibility** — K sensor services start at once; time until *all* K
  are discoverable through the lookup service (§VII: "any sensor service
  [can] appear and go away in the network dynamically");
* **late-joiner visibility** — one service starts long after the network
  settles (the steady-state add-a-sensor case);
* **registry restart** — the LUS host crashes and recovers empty; time
  until every service has re-registered (join managers re-register on
  rediscovery).

Expected shape: join visibility is dominated by the discovery probe round
plus one register RPC (well under a second at LAN latency) and is flat in
K; restart recovery is bounded by the announcement interval plus a
maintenance round.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, ServiceTemplate
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.core import ElementarySensorProvider, SENSOR_DATA_ACCESSOR

BATCHES = (1, 8, 32)
ANNOUNCE_INTERVAL = 5.0


def setup(n_prestarted=0):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(9),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=9)
    lus = LookupService(Host(net, "lus-host"),
                        announce_interval=ANNOUNCE_INTERVAL)
    lus.start()
    for index in range(n_prestarted):
        start_sensor(env, net, world, f"Pre-{index}")
    return env, net, world, lus


def start_sensor(env, net, world, name, lease=10.0):
    probe = TemperatureProbe(env, name.lower(), world, (0, 0),
                             rng=np.random.default_rng(0))
    esp = ElementarySensorProvider(Host(net, f"{name}-host"), name, probe,
                                   sample_interval=1e9, lease_duration=lease)
    esp.start()
    return esp


def visible_count(lus, prefix):
    return sum(1 for item in lus.lookup(
        ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 256)
        if (item.name() or "").startswith(prefix))


def batch_join_time(k):
    env, net, world, lus = setup()
    started_at = env.now
    for index in range(k):
        start_sensor(env, net, world, f"Batch-{index}")
    while visible_count(lus, "Batch-") < k:
        env.run(until=env.now + 0.05)
        if env.now - started_at > 30.0:
            raise AssertionError(f"only {visible_count(lus, 'Batch-')}/{k} joined")
    return env.now - started_at


def late_joiner_time():
    env, net, world, lus = setup(n_prestarted=8)
    env.run(until=30.0)  # settled network
    started_at = env.now
    start_sensor(env, net, world, "Late")
    while visible_count(lus, "Late") < 1:
        env.run(until=env.now + 0.05)
    return env.now - started_at


def registry_restart_recovery(k=8):
    env, net, world, lus = setup()
    for index in range(k):
        start_sensor(env, net, world, f"Svc-{index}")
    env.run(until=10.0)
    assert visible_count(lus, "Svc-") == k
    lus.host.fail()       # registry wiped
    env.run(until=15.0)
    lus.host.recover()
    recovered_at = env.now
    while visible_count(lus, "Svc-") < k:
        env.run(until=env.now + 0.1)
        if env.now - recovered_at > 60.0:
            raise AssertionError("services never re-registered")
    return env.now - recovered_at


def test_plug_and_play(report):
    join_rows = [[k, batch_join_time(k)] for k in BATCHES]
    late = late_joiner_time()
    restart = registry_restart_recovery()
    rows = [[f"batch join, K={k}", t] for k, t in join_rows]
    rows.append(["late joiner (settled net)", late])
    rows.append(["LUS restart -> all re-registered", restart])
    report(render_table(
        ["scenario", "time to visibility (s)"], rows,
        title="E-PNP — plug-and-play latency "
              f"(announce interval {ANNOUNCE_INTERVAL}s)"))
    # Joining is sub-second and flat in K (discovery is multicast).
    for k, t in join_rows:
        assert t < 1.0
    assert late < 1.0
    # Restart recovery bounded by announce interval + maintenance round.
    assert restart < ANNOUNCE_INTERVAL + 5.0
