"""Wrapping a legacy, non-standard sensor protocol (§II.3, §III.B).

"The best approach to sensor networking should be inclusive of various
sensor technologies transparently" and "all the legacy sensors and their
protocols can be part of a sensor network by wrapping them without any
changes to underlying codes."

This module demonstrates exactly that: :class:`LegacyFieldStation` is a
simulated 1990s-style field instrument speaking a framed binary protocol
(command byte + register; big-endian scaled integers back) over the
network. :class:`LegacyProtocolProbe` is the probe that speaks that
protocol — and *only* the probe knows it: the ESP above it is unchanged.
"""

from __future__ import annotations

import struct
from itertools import count
from typing import Optional

from ..net.host import Host
from ..net.message import Message
from ..net.wire import Protocol
from ..sim import Environment
from .environment import PhysicalEnvironment
from .probe import BaseProbe, ProbeError
from .teds import TransducerTEDS

__all__ = ["LegacyFieldStation", "LegacyProtocolProbe",
           "CMD_READ", "CMD_IDENT", "REGISTERS"]

STATION_PORT = "legacy.station"
REPLY_PORT = "legacy.reply"

#: Protocol command bytes.
CMD_READ = 0x52   # 'R' <register:u8>  -> i32 scaled by 100
CMD_IDENT = 0x49  # 'I'                -> ascii ident string

#: Register map: register id -> measured quantity.
REGISTERS = {0x01: "temperature", 0x02: "humidity", 0x03: "pressure"}


class LegacyFieldStation:
    """The device: answers framed binary commands, knows nothing of SOA."""

    RESPONSE_DELAY = 0.05  # seconds: the slow serial bridge

    def __init__(self, host: Host, environment: PhysicalEnvironment,
                 location: tuple, ident: str = "FS-90"):
        self.host = host
        self.env = host.env
        self.environment = environment
        self.location = tuple(location)
        self.ident = ident
        self.commands_served = 0
        host.open_port(STATION_PORT, self._on_frame)

    def _on_frame(self, msg: Message) -> None:
        self.env.process(self._answer(msg), name=f"legacy:{self.host.name}")

    def _answer(self, msg: Message):
        (reply_host, reply_port), seq, frame = msg.payload
        yield self.env.timeout(self.RESPONSE_DELAY)
        if not self.host.up:
            return
        command = frame[0]
        if command == CMD_READ and len(frame) >= 2 and frame[1] in REGISTERS:
            quantity = REGISTERS[frame[1]]
            value = self.environment.sample(quantity, self.location,
                                            self.env.now)
            payload = struct.pack(">bi", 0, int(round(value * 100)))
        elif command == CMD_IDENT:
            payload = struct.pack(">b", 0) + self.ident.encode("ascii")
        else:
            payload = struct.pack(">b", -1)  # NAK
        self.commands_served += 1
        self.host.send(reply_host, reply_port, kind="legacy-frame",
                       payload=(seq, bytes(payload)), protocol=Protocol.TCP)


class LegacyProtocolProbe(BaseProbe):
    """Probe speaking the station's binary protocol — the §II.3 wrapper."""

    def __init__(self, env: Environment, sensor_id: str, gateway: Host,
                 station_address: str, register: int = 0x01,
                 reply_timeout: float = 2.0,
                 teds: Optional[TransducerTEDS] = None, **kwargs):
        if register not in REGISTERS:
            raise ValueError(f"unknown register {register:#x}")
        quantity = REGISTERS[register]
        units = {"temperature": "celsius", "humidity": "percent",
                 "pressure": "hpa"}
        ranges = {"temperature": (-40.0, 85.0), "humidity": (0.0, 100.0),
                  "pressure": (300.0, 1100.0)}
        teds = teds or TransducerTEDS(
            manufacturer="FieldSys", model="FS-90", serial_number=sensor_id,
            version="2.3", quantity=quantity, unit=units[quantity],
            min_range=ranges[quantity][0], max_range=ranges[quantity][1],
            accuracy=1.0, resolution=0.01)
        super().__init__(env, sensor_id, teds, read_latency=0.0, **kwargs)
        self.gateway = gateway
        self.station_address = station_address
        self.register = register
        self.reply_timeout = reply_timeout
        self._pending: dict[int, object] = {}
        self._seq = count(1)
        #: Per-probe reply port, so several probes can share one gateway.
        self._reply_port = f"{REPLY_PORT}.{sensor_id}"
        gateway.open_port(self._reply_port, self._on_reply)

    def _on_reply(self, msg: Message) -> None:
        seq, frame = msg.payload
        event = self._pending.pop(seq, None)
        if event is not None and not event.triggered:
            event.succeed(frame)

    def _transact(self, frame: bytes):
        """One command/response exchange (generator)."""
        seq = next(self._seq)
        event = self.env.event()
        self._pending[seq] = event
        self.gateway.send(self.station_address, STATION_PORT,
                          kind="legacy-frame",
                          payload=((self.gateway.name, self._reply_port),
                                   seq, frame),
                          protocol=Protocol.TCP)
        timed = self.env.timeout(self.reply_timeout, value=None)
        yield self.env.any_of([event, timed])
        if not event.triggered:
            self._pending.pop(seq, None)
            raise ProbeError(
                f"{self.sensor_id}: station {self.station_address} "
                f"did not answer within {self.reply_timeout}s")
        return event.value

    def identify(self):
        """Read the station's ident string (generator)."""
        frame = yield from self._transact(bytes([CMD_IDENT]))
        status = struct.unpack_from(">b", frame)[0]
        if status != 0:
            raise ProbeError(f"{self.sensor_id}: station NAKed ident")
        return frame[1:].decode("ascii")

    def _sense(self, t: float):
        frame = yield from self._transact(bytes([CMD_READ, self.register]))
        status = struct.unpack_from(">b", frame)[0]
        if status != 0:
            raise ProbeError(
                f"{self.sensor_id}: station NAKed register {self.register:#x}")
        scaled = struct.unpack_from(">i", frame, 1)[0]
        return scaled / 100.0
