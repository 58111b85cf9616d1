"""E-LUS — registry redundancy: query availability through an LUS outage.

§VIII claims the system "handles very well several types of network and
computer outages by utilizing the Jini infrastructure". The single point
that could contradict that is the lookup service itself, and Jini's answer
is running several (the paper's Fig 2 shows two). Here a client queries a
sensor once per second for 60 s while the (or one) LUS host is down from
t=10 to t=30; we count failed queries with one vs two registrars. A warm
client queried before the outage; a cold client makes its first query
during it.

Expected shape: a warm client rides out even a lone LUS's outage — its
lookup cache already names the provider, and nothing it trusts changed —
so availability stays ~100%. A cold client of a lone LUS fails every query
until the registry is back and rediscovered; a cold client of two LUSs
finds the provider at the surviving registrar, and its availability stays
~100%.
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


def run_with(n_lus, cold=False):
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
    start = env.now
    outcomes = []

    def client():
        if cold:
            yield env.timeout(OUTAGE[0] + 1.0)
        exerter = Exerter(Host(net, "client"))
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
    results = {"1 LUS, warm client": run_with(1),
               "2 LUSs, warm client": run_with(2),
               "1 LUS, cold client": run_with(1, cold=True),
               "2 LUSs, cold client": run_with(2, cold=True)}
    rows = [[label, r["queries"], r["availability"], r["during_outage"],
             r["after_recovery"]]
            for label, r in results.items()]
    report(render_table(
        ["configuration", "queries", "overall avail.",
         "avail. during outage", "avail. after recovery"],
        rows,
        title=f"E-LUS — LUS host down t={OUTAGE[0]:.0f}..{OUTAGE[1]:.0f}s "
              f"of a {HORIZON:.0f}s run"))
    warm = results["1 LUS, warm client"]
    dual = results["2 LUSs, warm client"]
    single = results["1 LUS, cold client"]
    dual_cold = results["2 LUSs, cold client"]
    # A warm client's cache rides through a lone registry's outage.
    assert warm["during_outage"] > 0.95
    # A lone registry outage blacks out a cold client's lookups...
    assert single["during_outage"] < 0.5
    # ...and the network heals itself after the LUS returns, within one
    # announce interval + join round (a few failed queries right after
    # recovery are expected — the registry restarts empty).
    assert single["after_recovery"] > 0.75
    # A second registrar rides through the outage.
    assert dual["during_outage"] > 0.95
    assert dual["availability"] > single["availability"]
    # ...for a cold client too: its first lookups go to the survivor.
    assert dual_cold["during_outage"] > single["during_outage"]
    assert dual_cold["availability"] > single["availability"]
    assert dual_cold["during_outage"] > 0.95
