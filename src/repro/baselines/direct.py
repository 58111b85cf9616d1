"""Direct per-sensor IP collection — the status quo of the paper's §II.

Two variants of the pre-SenSORCER world:

* **poll** — a collection point polls every sensor node over raw TCP
  request/reply ("the data collection specialist has to connect to the
  sensor externally and collect the readings");
* **stream** — sensor nodes push every sample to a hard-coded collector
  address (the client-to-server data-flow problem of §II.4).

No registry, no leases, no federation: nodes are addressed by host name,
failures surface as timeouts, and every tiny reading pays the full
transport header — which is precisely what experiments E-OVH and E-SCALE
quantify against the federated design.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from ..net.host import Host
from ..net.message import Message
from ..net.wire import Protocol
from ..sensors.probe import ProbeError, SensorProbe

__all__ = ["DirectSensorNode", "DirectPollingCollector", "StreamingSensorNode",
           "StreamCollector"]

POLL_PORT = "sensor.poll"
REPLY_PORT = "sensor.reply"
STREAM_PORT = "sensor.stream"


class DirectSensorNode:
    """A bare sensor device answering raw poll requests."""

    def __init__(self, host: Host, probe: SensorProbe):
        self.host = host
        self.env = host.env
        self.probe = probe
        if not probe.connected:
            probe.connect()
        host.open_port(POLL_PORT, self._on_poll)
        self.polls_served = 0

    def _on_poll(self, msg: Message) -> None:
        reply_to, seq = msg.payload
        self.env.process(self._answer(reply_to, seq),
                         name=f"direct-poll:{self.host.name}")

    def _answer(self, reply_to: str, seq: int):
        try:
            reading = yield self.env.process(self.probe.read())
            payload = (seq, True, reading.value, reading.timestamp)
        except ProbeError as exc:
            payload = (seq, False, str(exc), self.env.now)
        if self.host.up:
            self.host.send(reply_to, REPLY_PORT, kind="direct-reply",
                           payload=payload, protocol=Protocol.TCP)
            self.polls_served += 1


class DirectPollingCollector:
    """Polls a fixed list of sensor nodes by host address."""

    #: Seconds a poll waits for its reply before counting a timeout.
    REPLY_TIMEOUT = 2.0

    def __init__(self, host: Host, node_addresses: list):
        self.host = host
        self.env = host.env
        self.node_addresses = list(node_addresses)
        self._pending: dict[int, object] = {}
        self._seq = count(1)
        host.open_port(REPLY_PORT, self._on_reply)
        self.timeouts = 0

    def _on_reply(self, msg: Message) -> None:
        seq, ok, value, timestamp = msg.payload
        event = self._pending.pop(seq, None)
        if event is not None and not event.triggered:
            event.succeed((ok, value, timestamp))

    def poll_one(self, address: str):
        """Poll a single node (generator). Returns the value or None."""
        seq = next(self._seq)
        event = self.env.event()
        self._pending[seq] = event
        self.host.send(address, POLL_PORT, kind="direct-poll",
                       payload=(self.host.name, seq), protocol=Protocol.TCP)
        timed = self.env.timeout(self.REPLY_TIMEOUT, value=None)
        yield self.env.any_of([event, timed])
        if not event.triggered:
            self._pending.pop(seq, None)
            self.timeouts += 1
            return None
        ok, value, _timestamp = event.value
        return value if ok else None

    def collect_all(self):
        """Poll every node concurrently (generator). Returns
        {address: value-or-None}."""
        procs = {address: self.env.process(self.poll_one(address),
                                           name=f"poll:{address}")
                 for address in self.node_addresses}
        yield self.env.all_of(list(procs.values()))
        return {address: proc.value for address, proc in procs.items()}

    def collect_all_sequential(self):
        """One node at a time — the naive collection loop (generator)."""
        out = {}
        for address in self.node_addresses:
            out[address] = yield from self.poll_one(address)
        return out

    def collect_average(self, sequential: bool = False):
        values = yield from (self.collect_all_sequential() if sequential
                             else self.collect_all())
        good = [v for v in values.values() if v is not None]
        if not good:
            raise RuntimeError("no sensor answered the poll round")
        return float(np.mean(good))


class StreamingSensorNode:
    """Pushes every sample to a hard-coded collector address (§II.4)."""

    #: Seconds between pushed samples.
    INTERVAL = 1.0

    def __init__(self, host: Host, probe: SensorProbe, collector: str):
        self.host = host
        self.env = host.env
        self.probe = probe
        self.collector = collector
        self.sent = 0
        self._active = False
        if not probe.connected:
            probe.connect()

    def start(self) -> None:
        if not self._active:
            self._active = True
            self.env.process(self._pump(), name=f"stream:{self.host.name}")

    def stop(self) -> None:
        self._active = False

    def _pump(self):
        while self._active:
            if self.host.up:
                try:
                    reading = yield self.env.process(self.probe.read())
                    self.host.send(self.collector, STREAM_PORT,
                                   kind="direct-stream",
                                   payload=(self.host.name, reading.value,
                                            reading.timestamp),
                                   protocol=Protocol.TCP)
                    self.sent += 1
                except ProbeError:
                    pass
            yield self.env.timeout(self.INTERVAL)


class StreamCollector:
    """Receives pushed samples; keeps the latest value per node."""

    def __init__(self, host: Host):
        self.host = host
        self.latest: dict[str, float] = {}
        self.received = 0
        host.open_port(STREAM_PORT, self._on_sample)

    def _on_sample(self, msg: Message) -> None:
        source, value, _timestamp = msg.payload
        self.latest[source] = value
        self.received += 1
