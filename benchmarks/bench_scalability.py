"""E-SCALE — §VII's scalability claims plus the CSP-strategy ablation.

For fleets of N sensors, compare the simulated latency of collecting one
fleet aggregate via:

* direct polling, sequential (the §II.2 status quo);
* direct polling, parallel;
* a flat CSP (all N sensors under one composite), parallel collection;
* a flat CSP with *sequential* collection (the ablation from DESIGN.md);
* a CSP tree with fanout 4 (logical subnets).

Expected shape: sequential anything grows O(N); parallel flat stays near
O(1) plus the slowest child; the tree pays one extra hop per level
(O(log N) depth) but keeps every fan-out bounded — and at large N the
message count per query grows linearly for every design (each sensor is
asked once) while *client-visible latency* does not.
"""

import os

import pytest

from repro.util.table import render_table
from repro.net import Host
from repro.baselines import DirectPollingCollector
from repro.scenarios import (build_direct_grid, build_sensorcer_grid,
                             seed_locator_discovery)
from repro.sorcer import Exerter, ServiceContext, Signature, Strategy, Task
from repro.core import SENSOR_DATA_ACCESSOR

FLEET_SIZES = (4, 16, 64)
#: The large tier (full mode only): §VII at fleet scale. Unicast locator
#: discovery replaces the multicast probe storm here — see
#: ``build_sensorcer_grid(discovery=...)``.
LARGE_FLEET_SIZES = (1024, 4096, 16384)
LARGE_FANOUT = 16
QUERIES = 5


def time_direct(n, sequential):
    grid = build_direct_grid(n, seed=13)
    env, net = grid.env, grid.net
    collector = DirectPollingCollector(Host(net, "client"),
                                       [s.host.name for s in grid.sensors])
    latencies = []

    def rounds():
        for _ in range(QUERIES):
            t0 = env.now
            yield from collector.collect_average(sequential=sequential)
            latencies.append(env.now - t0)

    env.run(until=env.process(rounds()))
    return sum(latencies) / len(latencies), net.stats.messages


def time_sensorcer(n, tree_fanout, strategy, discovery="multicast"):
    grid = build_sensorcer_grid(n, seed=13, fixed_latency=0.001,
                                tree_fanout=tree_fanout, strategy=strategy,
                                sample_interval=1e9, discovery=discovery)
    grid.settle(6.0)
    env, net = grid.env, grid.net
    client = Host(net, "client")
    if discovery == "locator":
        seed_locator_discovery(client)
    exerter = Exerter(client)
    latencies = []

    def warmup():
        # First query pays one-off discovery latency; exclude it.
        task = Task("warmup", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                        service_id=grid.root.service_id),
                    ServiceContext())
        task.control.invocation_timeout = 120.0
        result = yield env.process(exerter.exert(task))
        assert result.is_done, result.exceptions

    env.run(until=env.process(warmup()))
    messages_base = net.stats.messages

    def rounds():
        for _ in range(QUERIES):
            t0 = env.now
            task = Task("avg", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                         service_id=grid.root.service_id),
                        ServiceContext())
            task.control.invocation_timeout = 120.0
            result = yield env.process(exerter.exert(task))
            assert result.is_done, result.exceptions
            latencies.append(env.now - t0)

    env.run(until=env.process(rounds()))
    query_messages = (net.stats.messages - messages_base) / QUERIES
    return sum(latencies) / len(latencies), query_messages


def collect_rows():
    rows = []
    for n in FLEET_SIZES:
        direct_seq, _ = time_direct(n, sequential=True)
        direct_par, _ = time_direct(n, sequential=False)
        flat_par, flat_msgs = time_sensorcer(n, None, Strategy.PARALLEL)
        flat_seq, _ = time_sensorcer(n, None, Strategy.SEQUENTIAL)
        tree_par, tree_msgs = time_sensorcer(n, 4, Strategy.PARALLEL)
        rows.append([n, direct_seq, direct_par, flat_par, flat_seq, tree_par,
                     flat_msgs, tree_msgs])
    return rows


def test_scalability(report):
    rows = collect_rows()
    report(render_table(
        ["N", "direct seq (s)", "direct par (s)", "CSP flat par (s)",
         "CSP flat seq (s)", "CSP tree f=4 (s)", "flat msgs/query",
         "tree msgs/query"],
        rows,
        title="E-SCALE — fleet-average latency by architecture"))
    by_n = {row[0]: row for row in rows}
    # Sequential collection degrades linearly with N...
    assert by_n[64][1] > 8 * by_n[4][1]
    assert by_n[64][4] > 8 * by_n[4][4]
    # ...while parallel federated latency stays within a small factor.
    assert by_n[64][3] < 3 * by_n[4][3]
    # §VII: "addition of new sensor services does not necessarily affect
    # the performance of the system" — 16x more sensors, < 2x the latency.
    assert by_n[64][3] < 2 * by_n[16][3]
    # At every N the parallel CSP beats sequential direct polling.
    for n in FLEET_SIZES:
        assert by_n[n][3] < by_n[n][1]


@pytest.mark.slow
def test_scalability_large(report):
    """E-SCALE at fleet scale: N = 1024 / 4096 / 16384.

    Restricted to the architectures that stay tractable at this size
    (parallel direct polling and a fanout-16 CSP tree — sequential
    anything at 16k sensors is pure O(N) by construction and already
    shown at the small tier), with unicast locator discovery so fleet
    build traffic is O(N). The §VII claim under test: 16x more sensors
    must not cost 16x the client-visible latency — the tree adds one
    level (one hop) per fanout-power of N.
    """
    if os.environ.get("REPRO_BENCH_SMOKE"):
        pytest.skip("large fleets run in full mode only")

    rows = []
    for n in LARGE_FLEET_SIZES:
        direct_par, _ = time_direct(n, sequential=False)
        tree_par, tree_msgs = time_sensorcer(
            n, LARGE_FANOUT, Strategy.PARALLEL, discovery="locator")
        rows.append([n, direct_par, tree_par, tree_msgs])
    report(render_table(
        ["N", "direct par (s)", f"CSP tree f={LARGE_FANOUT} (s)",
         "tree msgs/query"],
        rows,
        title="E-SCALE large — fleet-average latency at 1k-16k sensors"))
    by_n = {row[0]: row for row in rows}
    # 16x the fleet, far less than 2x the latency (one extra tree level).
    assert by_n[16384][2] < 2 * by_n[1024][2]
    assert by_n[4096][2] < 2 * by_n[1024][2]
    # Messages per query stay linear in N: each sensor answers once, plus
    # one relay per composite on the path.
    ratio = by_n[16384][3] / by_n[1024][3]
    assert 8 < ratio < 32
    # The federated tree stays within a small factor of bare direct
    # polling even at 16k sensors.
    for n in LARGE_FLEET_SIZES:
        assert by_n[n][2] < 30 * by_n[n][1]


def test_tree_fanout_ablation(report):
    """Fanout sweep at N=64: deeper trees trade hops for bounded fan-out."""
    n = 64

    rows = []
    for fanout in (2, 4, 8, None):
        latency, messages = time_sensorcer(
            n, fanout, Strategy.PARALLEL)
        label = "flat" if fanout is None else f"fanout {fanout}"
        rows.append([label, latency, messages])
    report(render_table(
        ["tree shape", "latency (s)", "msgs/query"], rows,
        title=f"E-SCALE ablation — CSP tree fanout at N={n} sensors"))
    by_shape = {row[0]: row for row in rows}
    # Latency grows with depth: flat < fanout 8 < fanout 4 < fanout 2.
    assert by_shape["flat"][1] <= by_shape["fanout 8"][1] \
        <= by_shape["fanout 4"][1] <= by_shape["fanout 2"][1]
    # Deeper trees relay through more composites -> more messages.
    assert by_shape["fanout 2"][2] > by_shape["fanout 8"][2] > \
        by_shape["flat"][2]
