"""Concrete probe drivers — one per 'sensor technology'.

Each driver reads the synthetic :class:`~repro.sensors.environment.
PhysicalEnvironment` at its deployment location with technology-specific
TEDS (range/accuracy/resolution) and per-unit sensing noise. With the
Sun SPOT driver they are the paper's §II.3 claim in miniature: SenSORCER
must absorb heterogeneous, non-standardized technologies behind one probe
interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim import Environment
from .environment import PhysicalEnvironment
from .probe import BaseProbe
from .teds import TransducerTEDS

__all__ = ["EnvironmentProbe", "TemperatureProbe", "HumidityProbe"]


class EnvironmentProbe(BaseProbe):
    """A probe sampling one quantity of the physical environment."""

    QUANTITY = "generic"

    def __init__(self, env: Environment, sensor_id: str,
                 environment: PhysicalEnvironment, location: tuple,
                 teds: TransducerTEDS,
                 rng: Optional[np.random.Generator] = None,
                 sensing_noise: float = 0.0):
        super().__init__(env, sensor_id, teds)
        self.environment = environment
        self.location = tuple(location)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.sensing_noise = sensing_noise

    def _sense(self, t: float) -> float:
        truth = self.environment.sample(self.teds.quantity, self.location, t)
        if self.sensing_noise:
            truth += float(self.rng.normal(0.0, self.sensing_noise))
        return truth


def _teds(model: str, serial: str, quantity: str, unit: str, lo: float,
          hi: float, accuracy: float, resolution: float) -> TransducerTEDS:
    return TransducerTEDS(
        manufacturer="SimuSense", model=model, serial_number=serial,
        version="1.0", quantity=quantity, unit=unit, min_range=lo,
        max_range=hi, accuracy=accuracy, resolution=resolution)


class TemperatureProbe(EnvironmentProbe):
    """A generic digital thermometer (-40..85 C, 0.0625 C steps)."""

    QUANTITY = "temperature"

    def __init__(self, env, sensor_id, environment, location, **kwargs):
        teds = kwargs.pop("teds", None) or _teds(
            "TMP275", sensor_id, "temperature", "celsius",
            -40.0, 85.0, accuracy=0.5, resolution=0.0625)
        kwargs.setdefault("sensing_noise", 0.1)
        super().__init__(env, sensor_id, environment, location, teds, **kwargs)


class HumidityProbe(EnvironmentProbe):
    QUANTITY = "humidity"

    def __init__(self, env, sensor_id, environment, location, **kwargs):
        teds = kwargs.pop("teds", None) or _teds(
            "SHT11", sensor_id, "humidity", "percent",
            0.0, 100.0, accuracy=3.0, resolution=0.05)
        kwargs.setdefault("sensing_noise", 0.5)
        super().__init__(env, sensor_id, environment, location, teds, **kwargs)
