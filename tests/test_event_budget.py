"""What a message costs the kernel, as exact counts (no wall clock).

The message path runs on kernel callbacks, not kernel processes: one event
per delivery, which also serves an RPC request, a cancelled watchdog per
answered call, no reply and no watchdog for a one-way push, no process per
push or per probe read, no subscription sweeper per ESP (DESIGN §11). These literals are the
gate on that — a process creeping back onto the path moves them.
"""

import gc

import numpy as np

from repro.core.interfaces import SENSOR_DATA_ACCESSOR
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.observability import Span, Tracer, tracer_of
from repro.scenarios.grids import build_sensorcer_grid, seed_locator_discovery
from repro.sim import Environment
from repro.sorcer import Exerter, ServiceContext, Signature, Task

SENSORS = 16
TICKS = 10


class Collector:
    def __init__(self):
        self.stamps = []

    def notify(self, event):
        self.stamps.append(event.reading.timestamp)


def test_one_answered_call_is_three_events_and_a_cancelled_watchdog():
    """Request delivery (which serves it), reply delivery, the caller's
    event. With a serve hop between delivery and serve this was four."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1),
                  latency=FixedLatency(0.001))
    server, client = Host(net, "server"), Host(net, "client")
    ref = rpc_endpoint(server).export([], "list", methods=("append",))
    endpoint = rpc_endpoint(client)
    before = env.scheduler_stats()
    call = endpoint.call(ref, "append", 7)
    env.run()
    after = env.scheduler_stats()
    assert call.ok
    assert after["pops"] - before["pops"] == 3
    assert after["cancels"] - before["cancels"] == 1
    assert after["pending"] == 0


def test_a_pushed_reading_costs_at_most_five_kernel_events():
    """16 ESPs sampling at 1 Hz and pushing to one subscriber, whole ticks:
    kernel events and messages per tick, measured on this tree. With a
    serve hop per push and a subscription sweeper per ESP these ten ticks
    took 1,030 events; with the push still a round trip as well, 1,350
    (8.4 per reading) and 375 messages; with processes on the message path
    as well, 3,078 events (19.2 per reading)."""
    grid = build_sensorcer_grid(SENSORS, seed=11, discovery="locator",
                                fixed_latency=0.001, sample_interval=1.0)
    env, net = grid.env, grid.net
    host = seed_locator_discovery(Host(net, "collector-host"))
    collector = Collector()
    listener = rpc_endpoint(host).export(collector, "collector",
                                         methods=("notify",))
    exerter = Exerter(host)
    grid.settle(6.0)

    def subscribe_all():
        procs = []
        for esp in grid.sensors:
            ctx = ServiceContext(f"subscribe-{esp.name}")
            ctx.put_in_value("arg/listener", listener)
            ctx.put_in_value("arg/lease_duration", 600.0)
            task = Task(f"subscribe-{esp.name}",
                        Signature(SENSOR_DATA_ACCESSOR, "subscribe",
                                  service_id=esp.service_id), ctx)
            procs.append(env.process(exerter.exert(task)))
        results = yield env.all_of(procs)
        return sum(result.is_done for result in results)

    assert env.run(until=env.process(subscribe_all())) == SENSORS
    # Let one full burst through, then open the first tick 5 ms before the
    # samplers next wake, so no boundary splits a sample from its delivery.
    env.run(until=env.now + 1.5)
    start = collector.stamps[-1] + grid.sensors[0].sample_interval - 0.005
    env.run(until=start)
    pops, messages, delivered = [], [], []
    for tick in range(TICKS):
        before = (env.scheduler_stats()["pops"], net.stats.messages,
                  len(collector.stamps))
        env.run(until=start + tick + 1)
        pops.append(env.scheduler_stats()["pops"] - before[0])
        messages.append(net.stats.messages - before[1])
        delivered.append(len(collector.stamps) - before[2])
    assert delivered == [SENSORS] * TICKS
    # A quiet tick is 3 events per reading (sampler wake, read latency,
    # the notify's delivery, which serves it) plus one LUS sweep, and one
    # message per reading: the push is one-way. The busier ticks add lease
    # renewals and join polls.
    assert pops == [49, 106, 49, 67, 49, 67, 68, 121, 49, 67]
    assert messages == [16, 35, 16, 16, 16, 16, 16, 52, 16, 16]
    assert sum(pops) <= 5 * SENSORS * TICKS


def test_a_warmed_tree_read_costs_no_lookup():
    """One read of a 16-ESP tree (fan-out 4: the root over four composites
    over four ESPs each), after a first read filled every lookup cache on
    the way: kernel events and messages, measured on this tree. Every hop
    binds its provider from its host's lookup cache, so the read is the
    21 exertion round trips and nothing else. Each request is served
    inside its delivery; with a serve hop after each of the 21 request
    deliveries this read took 196 events. Each provider runs its operation
    inside the process serving the hop; when the operation was a process of
    its own, each of the 21 hops also paid its start and its finish: 238
    events. When each hop looked its provider up first, this read took 84
    messages, 42 of them lookups and their replies, and 322 events."""
    grid = build_sensorcer_grid(SENSORS, seed=11, tree_fanout=4,
                                discovery="locator", fixed_latency=0.001,
                                sample_interval=1e9)
    env, net = grid.env, grid.net
    exerter = Exerter(seed_locator_discovery(Host(net, "reader-host")))
    grid.settle(6.0)

    def read():
        value = yield from exerter.call(
            Signature(SENSOR_DATA_ACCESSOR, "getValue",
                      service_id=grid.root.service_id),
            name="read", context="read")
        return value

    first = env.run(until=env.process(read()))
    before = (env.scheduler_stats()["pops"], net.stats.messages,
              net.stats.by_kind["lus-lookup"]["messages"])
    assert env.run(until=env.process(read())) == first
    after = (env.scheduler_stats()["pops"], net.stats.messages,
             net.stats.by_kind["lus-lookup"]["messages"])
    pops, messages, lookups = (b - a for a, b in zip(before, after))
    assert lookups == 0
    assert messages == 42
    assert pops == 175


def test_tree_reads_leave_no_more_live_spans_than_a_batch():
    """Reads of a 64-ESP tree (fan-out 4): the tracer counts every span,
    but after each read the live ``Span`` objects it owns (a gc census)
    number at most one fold batch plus the spans still open, however many
    reads have run. Closed spans live on as column rows. When every span
    stayed a live object, the census grew by one read's spans per read."""
    grid = build_sensorcer_grid(64, seed=11, tree_fanout=4,
                                discovery="locator", fixed_latency=0.001,
                                sample_interval=1e9)
    env, net = grid.env, grid.net
    exerter = Exerter(seed_locator_discovery(Host(net, "reader-host")))
    tracer = tracer_of(net)
    grid.settle(6.0)

    def read():
        value = yield from exerter.call(
            Signature(SENSOR_DATA_ACCESSOR, "getValue",
                      service_id=grid.root.service_id),
            name="read", context="read")
        return value

    recorded = []
    for _ in range(6):
        env.run(until=env.process(read()))
        gc.collect()
        live = sum(1 for obj in gc.get_objects()
                   if type(obj) is Span and obj._tracer is tracer)
        assert live <= Tracer.COMPACT_BATCH + len(tracer.open_spans())
        recorded.append(len(tracer))
    # Every read is still counted: six reads, six times the spans.
    per_read = recorded[1] - recorded[0]
    assert per_read > Tracer.COMPACT_BATCH // 2
    assert [b - a for a, b in zip(recorded, recorded[1:])] == [per_read] * 5
