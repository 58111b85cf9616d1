"""Sensor probes — the only sensor-dependent component of the framework.

§V.B: "A Sensor Probe ... contains sensor specific driver code ... but hides
these details from sensor service providers." :class:`BaseProbe` owns the
common pipeline — connect state, read latency, error counting, range
clamping, quantization — and concrete drivers supply ``_sense()``
(how to get a raw number from *their* technology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..net.wire import WireSized
from ..sim import Environment
from .teds import TransducerTEDS

__all__ = ["Reading", "ProbeError", "ProbeNotConnected", "SensorProbe",
           "BaseProbe"]


class ProbeError(Exception):
    """A read failed at the probe level."""


class ProbeNotConnected(ProbeError):
    """Operations on a disconnected probe."""


@dataclass(frozen=True)
class Reading(WireSized):
    """One measurement, clamped and quantized to the TEDS."""

    value: float
    unit: str
    timestamp: float
    sensor_id: str
    quality: str = "good"     # "good" | "clamped" | "suspect"

    def wire_size(self) -> int:
        # value + timestamp + short strings: what a compact encoding needs.
        return 8 + 8 + 2 + len(self.unit) + len(self.sensor_id) + 1


class SensorProbe:
    """Abstract probe interface consumed by elementary sensor providers."""

    def connect(self):  # pragma: no cover - interface
        raise NotImplementedError

    def disconnect(self):  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def connected(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def teds(self) -> TransducerTEDS:  # pragma: no cover - interface
        raise NotImplementedError

    def read(self):  # pragma: no cover - interface
        """A generator yielding sim events, returning a :class:`Reading`."""
        raise NotImplementedError


class BaseProbe(SensorProbe):
    """Shared probe machinery; drivers implement :meth:`_sense`."""

    #: The driver's noise generator, if it was given one. A driver given
    #: none gets ``default_rng(0)`` on its first :meth:`_noise` draw, so a
    #: probe that never draws builds no generator.
    _rng: Optional[np.random.Generator] = None

    def __init__(self, env: Environment, sensor_id: str, teds: TransducerTEDS,
                 read_latency: float = 0.01):
        self.env = env
        self.sensor_id = sensor_id
        self._teds = teds
        self.read_latency = read_latency
        self._connected = False
        self.reads = 0
        self.read_errors = 0
        env.register_state(f"sensor.probe.{sensor_id}",
                           self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: connection flag and read counters."""
        return {"connected": self._connected,
                "read_errors": self.read_errors,
                "reads": self.reads}

    # -- SensorProbe interface -----------------------------------------------------

    def connect(self) -> None:
        self._connected = True

    def disconnect(self) -> None:
        self._connected = False

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def teds(self) -> TransducerTEDS:
        return self._teds

    def read(self):
        """Take one measurement (generator; models transducer latency)."""
        if not self._connected:
            raise ProbeNotConnected(f"probe {self.sensor_id} is not connected")
        if self.read_latency > 0:
            yield self.env.timeout(self.read_latency)
        t = self.env.now
        try:
            value = self._sense(t)
        except ProbeError:
            self.read_errors += 1
            raise
        quality = "good"
        if not self._teds.in_range(value):
            value = self._teds.clamp(value)
            quality = "clamped"
        value = self._teds.quantize(value)
        self.reads += 1
        return Reading(value=value, unit=self._teds.unit, timestamp=t,
                       sensor_id=self.sensor_id, quality=quality)

    # -- driver hooks ---------------------------------------------------------------

    def _noise(self, sigma: float) -> float:
        """One zero-mean Gaussian sensing-noise draw of deviation ``sigma``."""
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return float(self._rng.normal(0.0, sigma))

    def _sense(self, t: float) -> float:  # pragma: no cover - abstract
        """Return the raw transducer output at time t."""
        raise NotImplementedError
