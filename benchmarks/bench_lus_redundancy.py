"""E-LUS — registry redundancy: query availability through an LUS outage.

§VIII claims the system "handles very well several types of network and
computer outages by utilizing the Jini infrastructure". The single point
that could contradict that is the lookup service itself, and Jini's answer
is running several (the paper's Fig 2 shows two). Here a client queries a
sensor once per second for 60 s while the (or one) LUS host is down from
t=10 to t=30; we count failed queries with one vs two registrars.

Expected shape: with one LUS, every query during the outage fails once the
client's registrar cache notices (discards on first timeout) and none
succeed until re-announcement after recovery; with two LUSs, the accessor
fails over to the surviving registrar and availability stays ~100%.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import ElementarySensorProvider, SENSOR_DATA_ACCESSOR

HORIZON = 60.0
OUTAGE = (10.0, 30.0)


def run_with(n_lus):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(47),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=47)
    lus_hosts = []
    for index in range(n_lus):
        host = Host(net, f"lus-{index}")
        LookupService(host, announce_interval=5.0).start()
        lus_hosts.append(host)
    probe = TemperatureProbe(env, "p", world, (0, 0),
                             rng=np.random.default_rng(0))
    esp = ElementarySensorProvider(Host(net, "esp-host"), "Spot", probe,
                                   lease_duration=8.0)
    esp.start()
    env.run(until=6.0)
    exerter = Exerter(Host(net, "client"))
    outcomes = []

    def client():
        start = env.now
        while env.now - start < HORIZON:
            task = Task("q", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                       provider_name="Spot"),
                        ServiceContext())
            task.control.provider_wait = 0.4
            task.control.invocation_timeout = 2.0
            t0 = env.now
            result = yield env.process(exerter.exert(task))
            outcomes.append((env.now - start, result.is_done, env.now - t0))
            yield env.timeout(max(0.0, 1.0 - (env.now - t0)))

    def outage():
        yield env.timeout(OUTAGE[0])
        lus_hosts[0].fail()
        yield env.timeout(OUTAGE[1] - OUTAGE[0])
        lus_hosts[0].recover()

    env.process(outage())
    env.run(until=env.process(client()))
    ok = sum(1 for _, done, _ in outcomes if done)
    during = [done for t, done, _ in outcomes
              if OUTAGE[0] <= t < OUTAGE[1]]
    after = [done for t, done, _ in outcomes if t >= OUTAGE[1]]
    return {
        "queries": len(outcomes),
        "availability": ok / len(outcomes),
        "during_outage": (sum(during) / len(during)) if during else None,
        "after_recovery": (sum(after) / len(after)) if after else None,
    }


def test_lus_redundancy(report):
    results = {n: run_with(n) for n in (1, 2)}
    rows = [[f"{n} lookup service(s)", r["queries"], r["availability"],
             r["during_outage"], r["after_recovery"]]
            for n, r in results.items()]
    report(render_table(
        ["configuration", "queries", "overall avail.",
         "avail. during outage", "avail. after recovery"],
        rows,
        title=f"E-LUS — LUS host down t={OUTAGE[0]:.0f}..{OUTAGE[1]:.0f}s "
              f"of a {HORIZON:.0f}s run"))
    single, dual = results[1], results[2]
    # A lone registry outage blacks out lookups...
    assert single["during_outage"] < 0.5
    # ...and the network heals itself after the LUS returns, within one
    # announce interval + join round (a few failed queries right after
    # recovery are expected — the registry restarts empty).
    assert single["after_recovery"] > 0.75
    # A second registrar rides through the outage.
    assert dual["during_outage"] > 0.95
    assert dual["availability"] > single["availability"]
