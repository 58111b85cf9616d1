"""Elementary Sensor Provider — the framework's basic building block (§V.B).

An ESP wraps exactly one :class:`~repro.sensors.probe.SensorProbe` (the only
sensor-dependent component) and exports the technology-independent
``SensorDataAccessor`` interface. It samples the probe on its own schedule
into a local :class:`~repro.sensors.buffer.ReadingBuffer` (the data-flow
reversal fix of §II.4: consumers poll the service, not the sensor) and
plays the role of a *node* in the logical sensor network.
"""

from __future__ import annotations

from typing import Optional

from ..jini.entries import Location, SensorType
from ..jini.events import push_event
from ..jini.lease import Landlord
from ..net.host import Host
from ..observability import metrics_registry
from ..resilience import Deadline
from ..sensors.buffer import ReadingBuffer
from ..sensors.probe import ProbeError, Reading, SensorProbe
from ..sorcer.provider import ServiceProvider
from .events import SensorReadingEvent, Subscription
from .interfaces import (
    DATA_COLLECTION,
    ELEMENTARY_PROVIDER,
    KIND_ELEMENTARY,
    OP_GET_INFO,
    OP_GET_VALUE,
    SENSOR_DATA_ACCESSOR,
)

__all__ = ["ElementarySensorProvider"]


class ElementarySensorProvider(ServiceProvider):
    """Wraps one probe as a network sensor service."""

    SERVICE_TYPES = (SENSOR_DATA_ACCESSOR, ELEMENTARY_PROVIDER, DATA_COLLECTION)
    BUFFER_CAPACITY = 256  # readings kept in the local store

    def __init__(self, host: Host, name: str, probe: SensorProbe,
                 sample_interval: float = 1.0,
                 location: Optional[Location] = None,
                 technology: str = "simulated",
                 attributes: tuple = (),
                 **kwargs):
        teds = probe.teds
        sensor_attrs = (SensorType(quantity=teds.quantity, unit=teds.unit,
                                   technology=technology,
                                   service_kind=KIND_ELEMENTARY),)
        if location is not None:
            sensor_attrs += (location,)
        super().__init__(host, name, attributes=sensor_attrs + tuple(attributes),
                         **kwargs)
        self.probe = probe
        self.sample_interval = sample_interval
        self.buffer = ReadingBuffer(self.BUFFER_CAPACITY)
        self._sampling = False
        #: Leased push subscriptions (§II.5): event_id -> subscriber state.
        self._subscribers: dict[int, dict] = {}
        self._sub_landlord = Landlord(host.env, max_duration=600.0,
                                      on_expire=self._drop_subscription)
        registry = metrics_registry(host.network)
        self._m_samples = registry.counter("esp.samples", provider=name)
        self._m_sample_errors = registry.counter("esp.sample_errors",
                                                 provider=name)
        self._m_buffer_depth = registry.gauge("esp.buffer_depth",
                                              provider=name)
        self._m_events_pushed = registry.counter("esp.events_pushed",
                                                 provider=name)
        self.add_operation(OP_GET_VALUE, self._op_get_value)
        self.add_operation(OP_GET_INFO, self._op_get_info)
        self.add_operation("subscribe", self._op_subscribe)
        self.add_operation("renewSubscription", self._op_renew_subscription)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ElementarySensorProvider":
        super().start()
        if not self._sampling:
            self._sampling = True
            if not self.probe.connected:
                self.probe.connect()
            self.env.process(self._sampler(), name=f"esp-sample:{self.name}")
        return self

    def destroy(self):
        self._sampling = False
        self.probe.disconnect()
        yield from super().destroy()

    def _sampler(self):
        while self._sampling:
            if self.host.up and self.probe.connected:
                try:
                    reading = yield from self.probe.read()
                    self.buffer.append(reading)
                    self._m_samples.inc()
                    self._m_buffer_depth.set(len(self.buffer))
                    self._publish(reading)
                except ProbeError:
                    self._m_sample_errors.inc()
            yield self.env.timeout(self.sample_interval)

    # -- push subscriptions (§II.5 on-the-fly data) ----------------------------------

    def _publish(self, reading: Reading) -> None:
        # Subscribers push in subscription order (insertion-ordered dict).
        # No sweeper runs per ESP: a lapsed lease is reaped when a reading
        # first meets it, and renewSubscription refuses it before that.
        for event_id, sub in list(  # repro: allow[DET003]
                self._subscribers.items()):
            lease = self._sub_landlord.lease_of(event_id)
            if lease is None or lease.expiration <= self.env.now:
                self._sub_landlord.reap()
                continue
            if reading.timestamp - sub["last_pushed"] < sub["min_interval"]:
                continue
            sub["last_pushed"] = reading.timestamp
            sub["sequence"] += 1
            event = SensorReadingEvent(
                source=self.service_id, event_id=event_id,
                sequence=sub["sequence"], handback=sub["handback"],
                sensor_name=self.name, reading=reading)
            push_event(self.host, sub["listener"], event,
                       kind="sensor-event")
            self._m_events_pushed.inc()

    def _drop_subscription(self, event_id: int) -> None:
        self._subscribers.pop(event_id, None)

    def _op_subscribe(self, ctx):
        listener = ctx.get_value("arg/listener")
        min_interval = float(ctx.get_value("arg/min_interval", 0.0))
        duration = float(ctx.get_value("arg/lease_duration", 60.0))
        handback = ctx.get_value("arg/handback", None)
        event_id = self.host.network.ids.sequence()
        lease = self._sub_landlord.grant(event_id, duration)
        self._subscribers[event_id] = {
            "listener": listener, "min_interval": min_interval,
            "last_pushed": -float("inf"), "sequence": 0,
            "handback": handback,
        }
        return Subscription(event_id=event_id, lease_id=lease.lease_id,
                            expiration=lease.expiration,
                            min_interval=min_interval)

    def _op_renew_subscription(self, ctx):
        lease_id = ctx.get_value("arg/lease_id")
        duration = float(ctx.get_value("arg/lease_duration", 60.0))
        lease = self._sub_landlord.renew(lease_id, duration)
        return lease.expiration

    # -- operations ----------------------------------------------------------------

    def _latest(self):
        """Freshest reading: buffered if recent, else a direct probe read."""
        last = self.buffer.last()
        if last is not None and self.env.now - last.timestamp <= 2 * self.sample_interval:
            return last
        reading = yield self.env.process(self.probe.read())
        self.buffer.append(reading)
        return reading

    def _check_deadline(self, ctx) -> None:
        """Honor a propagated exertion deadline: refuse work on a request
        whose end-to-end budget is already spent (the caller has given up;
        answering would only burn the probe and the network)."""
        deadline = Deadline.from_context(ctx)
        if deadline is not None:
            deadline.check(self.env.now, what=f"read on {self.name!r}")

    def _op_get_value(self, ctx):
        self._check_deadline(ctx)
        reading = yield from self._latest()
        return reading.value

    def _op_get_info(self, ctx):
        teds = self.probe.teds
        return {
            "name": self.name,
            "service_id": self.service_id,
            "service_type": KIND_ELEMENTARY,
            "quantity": teds.quantity,
            "unit": teds.unit,
            "manufacturer": teds.manufacturer,
            "model": teds.model,
            "accuracy": teds.accuracy,
            "contained_services": [],
            "expression": None,
        }
