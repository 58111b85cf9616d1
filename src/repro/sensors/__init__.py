"""Sensor substrate: synthetic environment, TEDS, calibration, probe
drivers (incl. the simulated Sun SPOT) and the local reading store."""

from .buffer import ReadingBuffer
from .calibration import Calibration
from .drivers import EnvironmentProbe, HumidityProbe, TemperatureProbe
from .environment import FieldEvent, FieldSpec, PhysicalEnvironment
from .probe import BaseProbe, ProbeError, ProbeNotConnected, Reading, SensorProbe
from .sunspot import BatteryExhausted, SunSpotDevice, SunSpotTemperatureProbe
from .teds import TransducerTEDS

__all__ = [
    "BaseProbe",
    "BatteryExhausted",
    "Calibration",
    "EnvironmentProbe",
    "FieldEvent",
    "FieldSpec",
    "HumidityProbe",
    "PhysicalEnvironment",
    "ProbeError",
    "ProbeNotConnected",
    "Reading",
    "ReadingBuffer",
    "SensorProbe",
    "SunSpotDevice",
    "SunSpotTemperatureProbe",
    "TemperatureProbe",
    "TransducerTEDS",
]
