"""E-SURR — ESP (local store) vs the surrogate architecture (§III.B).

One Sun SPOT, queried by an increasing number of concurrent clients at
1 Hz for 30 simulated seconds, wrapped either as a SenSORCER ESP (samples
once a second into its local store; queries answered from the buffer) or
as a device surrogate (every query forwarded over the mote's single
80 ms-round-trip radio).

Reported per configuration: mean query latency and the number of device
wake-ups (battery cost). Expected shape — the paper's §III.B critique made
measurable: surrogate latency grows with client count (radio serialization)
and device reads grow with *queries*, while the ESP's latency stays flat
and its device reads stay at the sampling rate regardless of load.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, NetworkError, rpc_endpoint
from repro.jini import LookupService
from repro.sensors import PhysicalEnvironment, SunSpotDevice, \
    SunSpotTemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.baselines import DeviceLink, SurrogateHost
from repro.core import ElementarySensorProvider, SENSOR_DATA_ACCESSOR

CLIENTS = (1, 4, 8)
DURATION = 30.0
QUERY_INTERVAL = 1.0


def base(seed=33):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(seed),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=seed)
    LookupService(Host(net, "lus-host")).start()
    device = SunSpotDevice(env, "spot")
    probe = SunSpotTemperatureProbe(env, device, world, (0, 0),
                                    rng=np.random.default_rng(0))
    return env, net, world, device, probe


def run_esp(n_clients):
    env, net, world, device, probe = base()
    esp = ElementarySensorProvider(Host(net, "esp-host"), "Spot", probe,
                                   sample_interval=1.0)
    esp.start()
    env.run(until=5.0)
    reads_before = device.total_reads
    latencies = []

    def client(i):
        exerter = Exerter(Host(net, f"client-{i}"))
        deadline = env.now + DURATION
        while env.now < deadline:
            t0 = env.now
            task = Task("q", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                       service_id=esp.service_id),
                        ServiceContext())
            result = yield env.process(exerter.exert(task))
            if result.is_done:
                latencies.append(env.now - t0)
            yield env.timeout(QUERY_INTERVAL)

    procs = [env.process(client(i)) for i in range(n_clients)]

    def driver():
        yield env.all_of(procs)

    env.run(until=env.process(driver()))
    return float(np.mean(latencies)), device.total_reads - reads_before


def run_surrogate(n_clients):
    env, net, world, device, probe = base()
    sh = SurrogateHost(Host(net, "surrogate-host"))
    link = DeviceLink(env)
    surrogate = sh.activate("Spot", probe, link)
    env.run(until=5.0)
    reads_before = device.total_reads
    latencies = []

    def client(i):
        ep = rpc_endpoint(Host(net, f"client-{i}"))
        deadline = env.now + DURATION
        while env.now < deadline:
            t0 = env.now
            try:
                yield ep.call(surrogate.ref, "getValue", timeout=30.0)
                latencies.append(env.now - t0)
            except NetworkError:
                pass
            yield env.timeout(QUERY_INTERVAL)

    procs = [env.process(client(i)) for i in range(n_clients)]

    def driver():
        yield env.all_of(procs)

    env.run(until=env.process(driver()))
    return float(np.mean(latencies)), device.total_reads - reads_before


def test_esp_vs_surrogate(report):
    rows = []
    for n in CLIENTS:
        esp_latency, esp_reads = run_esp(n)
        surr_latency, surr_reads = run_surrogate(n)
        rows.append([n, esp_latency, surr_latency,
                     esp_reads, surr_reads])
    report(render_table(
        ["clients", "ESP latency (s)", "surrogate latency (s)",
         "ESP device reads", "surrogate device reads"],
        rows,
        title=f"E-SURR — 1 Sun SPOT, {DURATION:.0f}s at "
              f"{1/QUERY_INTERVAL:.0f} query/s per client"))
    by_n = {row[0]: row for row in rows}
    for n in CLIENTS:
        # ESP answers from its store: faster than the radio round trip.
        assert by_n[n][1] < by_n[n][2]
    # Surrogate device cost scales with clients; ESP cost does not.
    assert by_n[8][4] > 6 * by_n[1][4] / 2
    assert by_n[8][3] < 1.5 * by_n[1][3]
    # Radio serialization: surrogate latency grows with concurrency.
    assert by_n[8][2] > by_n[1][2]
