"""E-OVH — §II.1's header-overhead / data-flow claims, quantified.

Three comparisons over identical sensor fleets:

* **goodput of tiny readings**: raw streaming of one reading per message —
  headers dominate the payload (the paper's core §II.1 complaint);
* **client-link bytes per collected aggregate**: a client that wants the
  fleet average either polls all N sensors directly (N request/reply pairs
  on its own link) or asks one CSP (one exertion round trip) — the
  federated design moves the fan-out *into the network* and the client
  link cost becomes O(1) in N;
* **total network bytes**, showing where the aggregation traffic went.

Expected shape: federated wins on client-link bytes for N above a small
crossover (the per-call JERI framing is ~3x a raw TCP segment, so direct
wins for N=1 and loses for N >= ~4).
"""

import gc
import os
import sys
import time
# repro: allow-file[DET001] - benchmarks time real work on the wall clock

import numpy as np

from repro.util.table import render_table
from repro.net import Host
from repro.observability import tracer_of
from repro.scenarios import build_direct_grid, build_sensorcer_grid
from repro.baselines import DirectPollingCollector, StreamCollector, StreamingSensorNode
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sim import Environment
from repro.net import FixedLatency, Network
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import SENSOR_DATA_ACCESSOR

FLEET_SIZES = (1, 4, 16, 64)
ROUNDS = 10


def measure_direct(n):
    grid = build_direct_grid(n, seed=11)
    env, net = grid.env, grid.net
    client = Host(net, "client")
    collector = DirectPollingCollector(
        client, [s.host.name for s in grid.sensors])
    base = net.stats.host_bytes("client")

    def rounds():
        for _ in range(ROUNDS):
            yield from collector.collect_average()

    env.run(until=env.process(rounds()))
    after = net.stats.host_bytes("client")
    client_bytes = (after["sent"] + after["received"]
                    - base["sent"] - base["received"]) / ROUNDS
    return client_bytes, net.stats.total_bytes / ROUNDS


def measure_sensorcer(n):
    grid = build_sensorcer_grid(n, seed=11, fixed_latency=0.001,
                                sample_interval=1e9)  # no sampling traffic
    grid.settle(6.0)
    env, net = grid.env, grid.net
    client = Host(net, "client")
    exerter = Exerter(client)
    base = net.stats.host_bytes("client")
    total_base = net.stats.total_bytes

    def rounds():
        for _ in range(ROUNDS):
            task = Task("avg", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                         service_id=grid.root.service_id),
                        ServiceContext())
            result = yield env.process(exerter.exert(task))
            assert result.is_done, result.exceptions

    env.run(until=env.process(rounds()))
    after = net.stats.host_bytes("client")
    client_bytes = (after["sent"] + after["received"]
                    - base["sent"] - base["received"]) / ROUNDS
    return client_bytes, (net.stats.total_bytes - total_base) / ROUNDS


def test_overhead_client_link(report):
    rows = []
    for n in FLEET_SIZES:
        direct_client, direct_total = measure_direct(n)
        fed_client, fed_total = measure_sensorcer(n)
        rows.append([n, direct_client, fed_client,
                     direct_client / fed_client,
                     direct_total, fed_total])
    report(render_table(
        ["N sensors", "direct client B/agg", "federated client B/agg",
         "client ratio", "direct net B/agg", "federated net B/agg"],
        rows,
        title="E-OVH — bytes per collected fleet aggregate"))
    by_n = {row[0]: row for row in rows}
    # Direct wins at N=1 (JERI framing costs ~2 kB per exertion round trip),
    # the crossover falls below N=16, and the advantage grows with N.
    assert by_n[1][3] < 1.0
    assert by_n[16][3] > 1.0
    assert by_n[64][3] > 4.0
    assert by_n[64][3] > by_n[16][3] > by_n[4][3]
    # The federated client link is O(1) in fleet size.
    assert by_n[64][2] < 1.5 * by_n[1][2]


def test_overhead_streaming_goodput(report):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(3),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=3)
    StreamCollector(Host(net, "collector"))
    host = Host(net, "node")
    probe = TemperatureProbe(env, "p", world, (0, 0),
                             rng=np.random.default_rng(0))
    StreamingSensorNode(host, probe, "collector").start()
    env.run(until=100.5)
    stream = net.stats.by_kind["direct-stream"]
    payload = stream["payload_bytes"]
    headers = stream["header_bytes"]
    goodput = payload / (payload + headers)
    report(render_table(
        ["metric", "value"],
        [["samples streamed", stream["messages"]],
         ["payload bytes", payload],
         ["header bytes", headers],
         ["goodput (payload/total)", goodput]],
        title="E-OVH — raw streaming of one tiny reading per message"))
    # §II.1: headers dominate tiny sensor readings.
    assert goodput < 0.5


def _timed_collect_run(n, tracing, rounds=ROUNDS):
    """Wall-clock seconds for settle + ``rounds`` aggregate collections on
    an n-sensor grid, with tracing on or off. Returns (seconds, spans).

    The cyclic GC is paused during the timed region (and collected once
    right before it): its gen-0 cadence is allocation-count driven, so it
    fires at arbitrary points and charges whole-heap scan pauses to
    whichever run happens to trip the threshold — noise, not tracing cost.
    """
    grid = build_sensorcer_grid(n, seed=11, fixed_latency=0.001,
                                sample_interval=1e9)
    tracer = tracer_of(grid.net)
    tracer.enabled = tracing
    env, net = grid.env, grid.net
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        grid.settle(6.0)
        exerter = Exerter(Host(net, "client"))

        def gen():
            for _ in range(rounds):
                task = Task("avg", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                             service_id=grid.root.service_id),
                            ServiceContext())
                result = yield env.process(exerter.exert(task))
                assert result.is_done, result.exceptions

        env.run(until=env.process(gen()))
        return time.perf_counter() - started, len(tracer)
    finally:
        if gc_was_enabled:
            gc.enable()


def _python_calls(n, tracing, rounds):
    """Python function calls made by one ``_timed_collect_run``, counted
    through ``sys.setprofile``: the wall-clock comparison's deterministic
    companion, equal on every machine and every run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()  # finalizers left by earlier runs are not this run's calls
    outer = sys.getprofile()  # a coverage hook (benchmarks/reach.py) resumes
    sys.setprofile(count)
    try:
        _timed_collect_run(n, tracing=tracing, rounds=rounds)
    finally:
        sys.setprofile(outer)
    return calls


def test_tracing_overhead_under_five_percent(report):
    """E-OBS — always-on tracing must cost <= 5% wall clock.

    Many short interleaved runs, compared by the mean of each mode's
    fastest half. The on/off order alternates between pairs so neither
    mode systematically rides the colder machine state; short runs fit
    inside clean CPU-quota windows on a throttled host, and dropping each
    mode's slowest half discards exactly the runs a throttle pause or
    scheduler eviction inflated — noise that only ever adds time.

    ``REPRO_BENCH_SMOKE=1`` shrinks the comparison to a CI-sized smoke
    run and waives only the timing budget (a shared runner cannot honour
    it reliably); every behavioural assertion still holds.

    Beside the wall-clock ratio the table reports the ratio of Python
    calls, one counting pass per mode: a 2-core box's run-to-run noise is
    about as wide as the 5% budget, and the call ratio does not move with
    it. The call ratio is gated at the same 5% in every mode, smoke too,
    so the budget resolves on every run; the wall gate stays beside it.
    """
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    n, rounds, repeats = 16, 15, (4 if smoke else 36)

    def fastest_half_mean(samples):
        best = sorted(samples)[:max(1, len(samples) // 2)]
        return sum(best) / len(best)

    on, off, spans = [], [], 0
    for pair in range(repeats):
        modes = (True, False) if pair % 2 == 0 else (False, True)
        for tracing in modes:
            seconds, count = _timed_collect_run(n, tracing=tracing,
                                                rounds=rounds)
            if tracing:
                on.append(seconds)
                spans = count
            else:
                off.append(seconds)
                assert count == 0  # disabled tracer records nothing
    enabled, disabled = fastest_half_mean(on), fastest_half_mean(off)
    overhead = enabled / disabled - 1.0
    calls_on = _python_calls(n, tracing=True, rounds=rounds)
    calls_off = _python_calls(n, tracing=False, rounds=rounds)
    call_overhead = calls_on / calls_off - 1.0
    report(render_table(
        ["metric", "value"],
        [["fleet size", n],
         ["spans per traced run", spans],
         ["wall clock, tracing on (s)", enabled],
         ["wall clock, tracing off (s)", disabled],
         ["overhead", overhead],
         ["Python calls, tracing on", calls_on],
         ["Python calls, tracing off", calls_off],
         ["call overhead", call_overhead]],
        title="E-OBS — wall-clock cost of always-on exertion tracing"))
    assert spans > 100  # the traced runs actually recorded the workload
    assert calls_on > calls_off
    assert call_overhead <= 0.05, \
        f"tracing adds {call_overhead:.1%} Python calls (budget: 5%)"
    if not smoke:
        assert overhead <= 0.05, \
            f"tracing costs {overhead:.1%} wall clock (budget: 5%)"
