"""The four workloads, built on the unmodified ``repro`` package.

Each workload owns three things: how to build and warm its federation
(``build``), what one timed op is (``op``), and how to judge the outputs
afterwards (``finish``). Timing, counting and tracing live in
``worker.py`` — a workload never reads a host clock. All inputs derive
from the seed; the program under test only ever sees the built scenario.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core import SensorBrowser, SensorcerFacade
from repro.core.browser import BrowserError
from repro.core.interfaces import SENSOR_DATA_ACCESSOR
from repro.load import DEFAULT_TENANTS, build_load_lab
from repro.net import Host
from repro.net.rpc import rpc_endpoint
from repro.observability import metrics_registry, tracer_of
from repro.overload import Overloaded
from repro.scenarios import (SENSOR_NAMES, build_paper_lab,
                             build_sensorcer_grid, seed_locator_discovery)
from repro.sorcer.context import ServiceContext
from repro.sorcer.exerter import Exerter
from repro.sorcer.exertion import Task
from repro.sorcer.signature import Signature
from repro.util.rng import substream

__all__ = ["WORKLOAD_CLASSES", "PlainDrive", "SteppedDrive"]

#: Read values must match the in-process expectation to this absolute
#: tolerance (the arithmetic is replayed in the same order, so the
#: difference is in fact 0.0; the slack only covers a reordered sum).
VALUE_TOLERANCE = 1e-9


class PlainDrive:
    """Advance the kernel the way any client does: ``env.run``."""

    burst_max = 0

    def __init__(self, env):
        self.env = env

    def until_event(self, event):
        return self.env.run(until=event)

    def until_time(self, t: float) -> None:
        self.env.run(until=t)


class SteppedDrive(PlainDrive):
    """Traced-pass drive: single-steps the kernel through its public
    ``step``/``peek`` so the harness can see the longest run of events
    sharing one timestamp. Event order is identical to ``env.run``."""

    def __init__(self, env):
        super().__init__(env)
        self._at = None
        self._run = 0

    def _step(self) -> None:
        self.env.step()
        now = self.env.now
        if now == self._at:
            self._run += 1
        else:
            self._at, self._run = now, 1
        if self._run > self.burst_max:
            self.burst_max = self._run

    def until_event(self, event):
        while not event.processed:
            self._step()
        if not event.ok:
            raise event.value
        return event.value

    def until_time(self, t: float) -> None:
        env = self.env
        while env.peek() <= t:
            self._step()
        env.run(until=t)  # nothing left to pop: only sets the clock to t


class _Base:
    name = ""

    def __init__(self, seed: int, ops: int, n=None):
        self.seed = seed
        self.ops = ops
        self.n = n
        self.env = None
        self.net = None
        self.latencies: list = []   # sim seconds, one per request/delivery
        self.values: list = []      # returned values, folded into sim_digest
        self.attempted = 0
        self.ok = 0
        self.shed = 0
        self.wrong = 0

    def more(self, done: int) -> bool:
        return done < self.ops

    def finish(self) -> dict:
        """Outcome of the timed phase. ``goodput`` counts what completed
        correctly within its deadline; ``requests`` is the denominator of
        the per-request metrics and ``completed_ops`` the numerator of
        ``requests_per_host_s``."""
        failed = self.attempted - self.ok - self.shed
        return {"attempted": self.attempted, "ok": self.ok,
                "shed": self.shed, "wrong": self.wrong, "failed": failed,
                "goodput": self.ok, "requests": self.attempted,
                "completed_ops": self.ok, "untyped_failures": failed}

    def _read(self, browser, name, drive):
        """One closed-loop Facade read; returns the value or ``None``."""
        started = self.env.now
        self.attempted += 1
        try:
            value = drive.until_event(
                self.env.process(browser.get_value(name)))
        except (BrowserError, Overloaded) as exc:
            self.values.append(repr(exc))
            return None
        self.latencies.append(self.env.now - started)
        self.values.append(value)
        return value


COMPOSITE = "Composite-Service"


def _compose_lab(browser):
    """The paper's compose steps: the stock composite over the four
    SPOTs, then its averaging expression (a generator)."""
    yield from browser.compose_service(COMPOSITE, list(SENSOR_NAMES))
    yield from browser.add_expression(COMPOSITE, "(a+b+c+d)/4")


class LabFacadeRead(_Base):
    name = "lab_facade_read"

    def build(self) -> None:
        lab = build_paper_lab(seed=self.seed)
        self.lab, self.env, self.net = lab, lab.env, lab.net
        lab.settle(6.0)
        browser = lab.browser
        self.names = list(SENSOR_NAMES) + [COMPOSITE]

        def six_steps():
            yield from browser.get_sensor_list()
            yield from _compose_lab(browser)
            for name in self.names:
                yield from browser.get_value(name)

        self.env.run(until=self.env.process(six_steps()))

    def _recent(self, name: str) -> list:
        # A sample may land between the ESP answering and the reply
        # arriving, so the read matches one of the two newest readings.
        return [r.value for r in self.lab.sensors[name].buffer.window(2)]

    def _expected(self, name: str) -> list:
        if name != COMPOSITE:
            return self._recent(name)
        return [(a + b + c + d) / 4 for a, b, c, d in itertools.product(
            *(self._recent(child) for child in SENSOR_NAMES))]

    def op(self, index: int, drive) -> int:
        name = self.names[index % len(self.names)]
        value = self._read(self.lab.browser, name, drive)
        if value is not None:
            if any(abs(value - want) <= VALUE_TOLERANCE
                   for want in self._expected(name)):
                self.ok += 1
            else:
                self.wrong += 1
        return 1


def _link_latency(seed: int) -> float:
    """One-way latency of the grid workloads' LAN: 1 ms ± 0.2 %, drawn
    from the seed. A fixed delay keeps the 1024-wide same-instant bursts
    the kernel must absorb; the per-seed draw keeps sim-time metrics a
    function of the seed instead of a constant."""
    return 0.001 * (1.0 + 0.004 * (substream(seed, "e2e", "link").random() - 0.5))


def _grid(seed: int, n: int, sample_interval: float):
    return build_sensorcer_grid(
        n, seed=seed, tree_fanout=16, discovery="locator",
        fixed_latency=_link_latency(seed), sample_interval=sample_interval)


class TreeRead(_Base):
    name = "tree_read_1k"

    def build(self) -> None:
        # sample_interval=1e9: every ESP samples once at start-up and then
        # answers from its buffer, so the sensors layer stays out of reads.
        grid = _grid(self.seed, self.n or 1024, sample_interval=1e9)
        self.grid, self.env, self.net = grid, grid.env, grid.net
        facade = SensorcerFacade(
            seed_locator_discovery(Host(grid.net, "facade-host")))
        facade.start()
        self.browser = SensorBrowser(
            seed_locator_discovery(Host(grid.net, "browser-host")))
        grid.settle(6.0)
        self.env.run(until=self.env.process(self.browser.get_value("Root")))

    def _expected(self) -> float:
        """Replay the tree's arithmetic: each composite returns the mean
        of its children in composition order."""
        by_id = {esp.service_id: esp for esp in self.grid.sensors}
        by_id.update({csp.service_id: csp for csp in self.grid.composites})

        def value_of(provider) -> float:
            children = getattr(provider, "children", None)
            if children is None:
                return provider.buffer.last().value
            values = [value_of(by_id[c.service_id]) for c in children]
            return sum(values) / len(values)

        return value_of(self.grid.root)

    def op(self, index: int, drive) -> int:
        self._read(self.browser, "Root", drive)
        return 1

    def finish(self) -> dict:
        # Buffers never change after start-up: judge every read at once.
        want = self._expected()
        for value in self.values:
            if isinstance(value, float):
                if abs(value - want) <= VALUE_TOLERANCE:
                    self.ok += 1
                else:
                    self.wrong += 1
        return super().finish()


class OpenLoadSat(_Base):
    name = "open_load_sat"

    def build(self) -> None:
        # The stock 3:2:1 tenants, reading the composite as well as the
        # four SPOTs so concurrent composite reads can coalesce.
        targets = SENSOR_NAMES + (COMPOSITE,)
        tenants = [dataclasses.replace(spec, targets=targets)
                   for spec in DEFAULT_TENANTS]
        # ops = sim seconds of arrivals; the drain tail adds a slice or two.
        self.load_lab = build_load_lab(seed=self.seed, tenants=tenants,
                                       scale=2.0, duration=float(self.ops))
        lab = self.load_lab.lab
        self.env, self.net = lab.env, lab.net
        self.env.run(until=self.env.process(_compose_lab(lab.browser)))
        self.registry = metrics_registry(lab.net)
        self.start = self.env.now
        self.engine_proc = self.env.process(self.load_lab.engine.run(),
                                            name="load-engine")
        self._offered = 0

    def more(self, done: int) -> bool:
        return not self.engine_proc.processed

    def op(self, index: int, drive) -> int:
        drive.until_time(self.start + index + 1)
        offered = int(sum(self.registry.value("load.offered", tenant=t.name)
                          for t in self.load_lab.tenants))
        fresh, self._offered = offered - self._offered, offered
        return fresh

    def finish(self) -> dict:
        total = self.load_lab.engine.summary()["total"]
        # Client-visible latency of every completed request, from the
        # engine's own root spans (the histogram only keeps buckets).
        spans = tracer_of(self.net).find(
            predicate=lambda s: (s.parent_id is None and s.status == "ok"
                                 and s.started_at >= self.start
                                 and s.name.startswith("exert:load-")))
        self.latencies = [s.duration for s in spans]
        self.values = [total["offered"], total["completed"],
                       total["goodput"], total["rejected"], total["failed"]]
        closes = (total["offered"] == total["completed"] + total["rejected"]
                  + total["failed"]) and len(spans) == total["completed"]
        return {"attempted": total["offered"], "ok": total["completed"],
                "shed": total["rejected"], "wrong": 0 if closes else 1,
                "failed": total["failed"], "goodput": total["goodput"],
                "requests": total["offered"],
                "completed_ops": total["completed"],
                # Sheds are typed answers; only these break the contract.
                "untyped_failures": total["failed"] + (0 if closes else 1)}


class _Collector:
    """The push subscriber: counts ``notify`` deliveries and their age."""

    def __init__(self, env):
        self.env = env
        self.count = 0
        self.last_stamp = 0.0
        self.ages: list = []

    def notify(self, event) -> None:
        self.count += 1
        self.last_stamp = event.reading.timestamp
        self.ages.append(self.env.now - event.reading.timestamp)


class PushStream(_Base):
    name = "push_stream_1k"

    def build(self) -> None:
        grid = _grid(self.seed, self.n or 1024, sample_interval=1.0)
        self.grid, self.env, self.net = grid, grid.env, grid.net
        host = seed_locator_discovery(Host(grid.net, "collector-host"))
        self.collector = _Collector(self.env)
        listener = rpc_endpoint(host).export(self.collector, "collector",
                                             methods=("notify",))
        exerter = Exerter(host)
        grid.settle(6.0)

        def subscribe_all():
            procs = []
            for esp in grid.sensors:
                ctx = ServiceContext(f"subscribe-{esp.name}")
                ctx.put_in_value("arg/listener", listener)
                ctx.put_in_value("arg/min_interval", 0.0)
                ctx.put_in_value("arg/lease_duration", 600.0)
                task = Task(f"subscribe-{esp.name}",
                            Signature(SENSOR_DATA_ACCESSOR, "subscribe",
                                      service_id=esp.service_id), ctx)
                procs.append(self.env.process(exerter.exert(task)))
            results = yield self.env.all_of(procs)
            return sum(1 for result in results if result.is_done)

        subscribed = self.env.run(until=self.env.process(subscribe_all()))
        if subscribed != len(grid.sensors):
            raise RuntimeError(f"only {subscribed} subscriptions granted")
        # Every ESP samples in lockstep (all started at t=0). Let one full
        # burst through, then open the first tick 5 ms before the samplers
        # next wake: bursts drift 10 ms per tick but sit on a 10 ms grid
        # offset 5 ms from every tick boundary, so no boundary ever splits
        # a sample from its delivery 1 ms later.
        while self.collector.count < len(grid.sensors):
            self.env.run(until=self.env.now + 0.25)
        esp = grid.sensors[0]
        period = esp.probe.read_latency + esp.sample_interval
        self.start = (self.collector.last_stamp + period
                      - esp.probe.read_latency - 0.005)
        self.env.run(until=self.start)
        self.collector.count = 0
        self.collector.ages.clear()
        self._reads = self._probe_reads()
        self._delivered = 0
        self._whole_ticks = 0

    def _probe_reads(self) -> int:
        return sum(esp.probe.reads for esp in self.grid.sensors)

    def op(self, index: int, drive) -> int:
        drive.until_time(self.start + index + 1)
        reads, delivered = self._probe_reads(), self.collector.count
        sampled, self._reads = reads - self._reads, reads
        arrived, self._delivered = delivered - self._delivered, delivered
        self.attempted += sampled
        self.ok += min(sampled, arrived)
        self.wrong += abs(sampled - arrived)
        self._whole_ticks += sampled == arrived
        self.values.append(arrived)
        return 1

    def finish(self) -> dict:
        self.latencies = self.collector.ages
        out = super().finish()
        # The op is the tick: per-request metrics are per tick.
        out["requests"] = len(self.values)
        out["completed_ops"] = self._whole_ticks
        return out


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (LabFacadeRead, TreeRead, OpenLoadSat, PushStream)}
