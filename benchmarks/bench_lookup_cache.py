"""E-CACHE — ablation: the accessor's event-driven lookup cache.

SORCER binds providers at runtime through the lookup service. Our
ServiceAccessor keeps one lookup per template, kept current by LUS service
events (Jini's LookupCache). A client issues 50 queries against one
provider; reported: mean query latency and LUS lookup requests with the
event cache, and with a bench-local accessor that looks up live before
every query (what every query paid before the cache) — plus the staleness
cost: the provider is restarted mid-run (new service id, new host).

Expected shape: the cache removes the LUS round trip from the hot path
(~40% lower query latency on an idle LAN, no registry request after the
warm-up); churn costs no failed query, because the replacement's arrival
event adds it to the entry and the dead provider's lease lapse evicts it.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.jini import LookupService
from repro.sorcer import (
    Exerter,
    ServiceAccessor,
    ServiceContext,
    Signature,
    Task,
    Tasker,
)

QUERIES = 50


class PingProvider(Tasker):
    SERVICE_TYPES = ("Ping",)

    def __init__(self, host, name="Ping", **kw):
        super().__init__(host, name, lease_duration=5.0, **kw)
        self.add_operation("ping", lambda ctx: 1)


class UncachedAccessor(ServiceAccessor):
    """One direct ``lookup`` call per query, at the first registrar."""

    def find_items(self, template, max_matches=16, wait=0.0):
        deadline = self.env.now + wait
        while True:
            items = []
            registrars = list(self.discovery.registrars.values())
            if registrars:
                items = yield rpc_endpoint(self.host).call(
                    registrars[0], "lookup", template, max_matches,
                    kind="lus-lookup", timeout=3.0)
            if items or self.env.now >= deadline:
                return items
            yield self.env.timeout(0.5)


def run_steady(accessor_class):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(51),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    PingProvider(Host(net, "p-host")).start()
    env.run(until=5.0)
    client = Host(net, "client")
    accessor = accessor_class(client)
    exerter = Exerter(client, accessor=accessor)
    latencies = []

    def proc():
        # Warm-up (discovery + first lookup).
        task = Task("w", Signature("Ping", "ping"), ServiceContext())
        yield env.process(exerter.exert(task))
        base = net.stats.by_kind["lus-lookup"]["messages"]
        for _ in range(QUERIES):
            task = Task("q", Signature("Ping", "ping"), ServiceContext())
            t0 = env.now
            result = yield env.process(exerter.exert(task))
            assert result.is_done, result.exceptions
            latencies.append(env.now - t0)
        return net.stats.by_kind["lus-lookup"]["messages"] - base

    lookups = env.run(until=env.process(proc()))
    return float(np.mean(latencies)), lookups


def run_churn(accessor_class):
    """Provider restarts mid-run; measure failed queries until recovery."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(52),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    provider = PingProvider(Host(net, "p-host"))
    provider.start()
    env.run(until=5.0)
    client = Host(net, "client")
    accessor = accessor_class(client)
    exerter = Exerter(client, accessor=accessor)
    failures = 0

    def proc():
        nonlocal failures
        for index in range(30):
            if index == 10:
                # Restart: old instance dies, replacement on a new host.
                provider.host.fail()
                replacement = PingProvider(Host(net, "p-host-2"), "Ping-2")
                replacement.start()
                yield env.timeout(2.0)
            task = Task("q", Signature("Ping", "ping"), ServiceContext())
            task.control.invocation_timeout = 0.5
            task.control.provider_wait = 2.0
            result = yield env.process(exerter.exert(task))
            if result.is_failed:
                failures += 1
            yield env.timeout(1.0)

    env.run(until=env.process(proc()))
    return failures


def test_lookup_cache_ablation(report):
    rows = []
    for accessor_class, label in ((UncachedAccessor, "lookup per query"),
                                  (ServiceAccessor, "event cache")):
        latency, lookups = run_steady(accessor_class)
        failures = run_churn(accessor_class)
        rows.append([label, latency, lookups, failures])
    report(render_table(
        ["configuration", "query latency (s)", "LUS lookups / 50 queries",
         "failed queries under churn"],
        rows,
        title="E-CACHE — accessor lookup caching ablation"))
    by_label = {row[0]: row for row in rows}
    # The cache removes the registry round trip from the hot path.
    assert by_label["event cache"][1] < by_label["lookup per query"][1]
    assert by_label["event cache"][2] == 0
    assert by_label["lookup per query"][2] == QUERIES
    # Churn: service events replace the restarted provider in the entry.
    assert by_label["lookup per query"][3] == 0
    assert by_label["event cache"][3] == 0
