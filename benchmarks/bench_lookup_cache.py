"""E-CACHE — ablation: lookup caching in the service accessor.

SORCER caches provider proxies; our ServiceAccessor optionally caches
lookup results per template (``cache_ttl``). A client issues 50 queries
against one provider; reported: mean query latency and LUS lookup requests,
without caching, with a 5 s TTL, and with a 60 s TTL — plus the staleness
cost: the provider is restarted mid-run (new service id, new host) and the
cached proxy goes stale until the TTL expires.

Expected shape: caching removes the LUS round trip from the hot path
(~30-40% lower query latency on an idle LAN, 50x fewer registry requests);
the staleness cost after churn is bounded by one failed attempt round,
because the exerter invalidates the cache when every candidate fails.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
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


def run_steady(cache_ttl):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(51),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    PingProvider(Host(net, "p-host")).start()
    env.run(until=5.0)
    client = Host(net, "client")
    accessor = ServiceAccessor(client, cache_ttl=cache_ttl)
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


def run_churn(cache_ttl):
    """Provider restarts mid-run; measure failed queries until recovery."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(52),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    provider = PingProvider(Host(net, "p-host"))
    provider.start()
    env.run(until=5.0)
    client = Host(net, "client")
    accessor = ServiceAccessor(client, cache_ttl=cache_ttl)
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
    for ttl, label in ((0.0, "no cache"), (5.0, "TTL 5s"),
                       (60.0, "TTL 60s")):
        latency, lookups = run_steady(ttl)
        failures = run_churn(ttl)
        rows.append([label, latency, lookups, failures])
    report(render_table(
        ["configuration", "query latency (s)", "LUS lookups / 50 queries",
         "failed queries under churn"],
        rows,
        title="E-CACHE — accessor lookup caching ablation"))
    by_label = {row[0]: row for row in rows}
    # Caching removes the registry round trip from the hot path.
    assert by_label["TTL 60s"][1] < by_label["no cache"][1]
    assert by_label["TTL 60s"][2] <= 2
    assert by_label["no cache"][2] == QUERIES
    # Churn: the exerter invalidates a stale cache after a full round of
    # failures, so even TTL 60s loses at most the in-flight queries.
    assert by_label["no cache"][3] == 0
    assert by_label["TTL 60s"][3] <= 2