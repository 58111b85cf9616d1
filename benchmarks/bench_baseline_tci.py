"""E-TCI — SenSORCER vs the Jini TCI/SSP/ASP framework (§III.A).

Same fleet (8 temperature sensors) under both architectures; measured:

* **aggregate query latency** — fleet mean via the ASP's fixed 'mean' vs a
  CSP with the equivalent expression;
* **re-grouping cost** — narrowing the aggregate to a 4-sensor subset:
  SenSORCER re-composes the live CSP (two management exertions); the TCI
  framework must destroy and redeploy its single-access-point ASP and wait
  for it to rejoin;
* **capability flags** — client-selectable sensors/computation and
  autonomic provisioning, which the baseline simply lacks.

Expected shape: SenSORCER answers aggregate queries ~10x faster (ESPs
serve locally buffered values; a TCI re-reads every probe synchronously on
each query — §III.A's "difficult in real-time applications" complaint),
and re-composition is an order of magnitude faster than ASP redeployment —
matching the paper's argument that the ASP "is only used for data
processing" while the CSP "allows a client to decide on which sensor
services to use, and what computation to be done".
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, NetworkError, rpc_endpoint
from repro.jini import LookupService
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, Jobber, ServiceContext, Signature, Task
from repro.core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    SENSOR_DATA_ACCESSOR,
)
from repro.baselines import (
    ApplicationServiceProvider,
    TciSensorServiceProvider,
    TerminalCommunicationInterface,
)

N_SENSORS = 8
QUERIES = 5


def probe_at(env, world, index):
    return TemperatureProbe(env, f"probe-{index}", world, (index * 10.0, 0.0),
                            rng=np.random.default_rng(index),
                            sensing_noise=0.0)


def run_sensorcer():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(21),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=21)
    LookupService(Host(net, "lus-host")).start()
    Jobber(Host(net, "jobber-host")).start()
    esps = []
    for index in range(N_SENSORS):
        esp = ElementarySensorProvider(
            Host(net, f"esp-{index}"), f"Sensor-{index}",
            probe_at(env, world, index), sample_interval=1e9)
        esp.start()
        esps.append(esp)
    csp = CompositeSensorProvider(Host(net, "csp-host"), "Aggregate")
    csp.start()
    for esp in esps:
        csp.add_child(esp.service_id, esp.name)
    env.run(until=6.0)
    exerter = Exerter(Host(net, "client"))

    def query():
        task = Task("q", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                   service_id=csp.service_id),
                    ServiceContext())
        result = yield env.process(exerter.exert(task))
        assert result.is_done, result.exceptions
        return result.get_return_value()

    # Warm-up excludes one-off discovery latency.
    env.run(until=env.process(query()))
    latencies = []

    def timed_rounds():
        for _ in range(QUERIES):
            t0 = env.now
            yield env.process(query())
            latencies.append(env.now - t0)

    env.run(until=env.process(timed_rounds()))
    query_latency = float(np.mean(latencies))

    # Re-group to the even sensors with a different computation — at
    # runtime, through management exertions (as the façade would do it).
    t0 = env.now
    mgmt = exerter  # already-warm requestor

    def regroup_remote():
        for esp in esps:
            if int(esp.name.split("-")[1]) % 2 == 1:
                ctx = ServiceContext()
                ctx.put_in_value("arg/service_id", esp.service_id)
                task = Task("rm", Signature(SENSOR_DATA_ACCESSOR,
                                            "removeService",
                                            service_id=csp.service_id), ctx)
                result = yield env.process(mgmt.exert(task))
                assert result.is_done, result.exceptions
        ctx = ServiceContext()
        ctx.put_in_value("arg/expression", "max(a, b, c, d)")
        task = Task("expr", Signature(SENSOR_DATA_ACCESSOR, "setExpression",
                                      service_id=csp.service_id), ctx)
        result = yield env.process(mgmt.exert(task))
        assert result.is_done, result.exceptions

    env.run(until=env.process(regroup_remote()))
    regroup_latency = env.now - t0
    return query_latency, regroup_latency


def run_tci():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(21),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=21)
    LookupService(Host(net, "lus-host")).start()
    # Two TCIs, four sensors each.
    for t in range(2):
        probes = {f"s-{t * 4 + s}": probe_at(env, world, t * 4 + s)
                  for s in range(4)}
        TerminalCommunicationInterface(Host(net, f"tci-{t}"), f"TCI-{t}",
                                       probes).start()
    TciSensorServiceProvider(Host(net, "ssp-host")).start()
    asp = ApplicationServiceProvider(Host(net, "asp-host"))
    asp.start()
    env.run(until=6.0)
    client = rpc_endpoint(Host(net, "client"))
    latencies = []

    def timed_rounds():
        for _ in range(QUERIES):
            t0 = env.now
            yield client.call(asp.ref, "query", "mean", timeout=60.0)
            latencies.append(env.now - t0)

    env.run(until=env.process(timed_rounds()))
    query_latency = float(np.mean(latencies))

    # Re-group to the even sensors: destroy + redeploy the ASP.
    t0 = env.now

    def redeploy():
        yield env.process(asp.destroy())
        replacement = ApplicationServiceProvider(
            Host(net, "asp2-host"), name="ASP",
            include_sensors=[f"s-{i}" for i in range(0, N_SENSORS, 2)])
        replacement.start()
        # The new single access point must be discoverable and answering.
        while True:
            try:
                yield client.call(replacement.ref, "query", "mean",
                                  timeout=60.0)
                return
            except NetworkError:
                yield env.timeout(0.5)

    env.run(until=env.process(redeploy()))
    regroup_latency = env.now - t0
    return query_latency, regroup_latency


def test_sensorcer_vs_tci(report):
    s_query, s_regroup = run_sensorcer()
    t_query, t_regroup = run_tci()
    rows = [
        ["aggregate query latency (s)", s_query, t_query],
        ["re-group to 4-sensor subset (s)", s_regroup, t_regroup],
        ["client-selectable computation", "yes (expressions)", "no (fixed menu)"],
        ["runtime re-composition", "yes (CSP mgmt ops)", "no (redeploy ASP)"],
        ["autonomic provisioning", "yes (Rio)", "no"],
    ]
    report(render_table(
        ["metric", "SenSORCER", "TCI/SSP/ASP"], rows,
        title=f"E-TCI — same {N_SENSORS}-sensor fleet under both frameworks"))
    # §III.A: the TCI is "burdened with a lot many responsibilities" and
    # struggles with fast value reporting — every query re-reads probes
    # synchronously, while ESPs answer from their local store.
    assert s_query < t_query
    assert t_query < 100 * s_query
    # Runtime re-composition crushes ASP redeployment.
    assert s_regroup < t_regroup / 5
