"""Sensor substrate: synthetic environment, TEDS, probe
drivers (incl. the simulated Sun SPOT) and the local reading store."""

from .buffer import ReadingBuffer
from .drivers import EnvironmentProbe, HumidityProbe, TemperatureProbe
from .environment import FieldEvent, FieldSpec, PhysicalEnvironment
from .probe import BaseProbe, ProbeError, ProbeNotConnected, Reading, SensorProbe
from .sunspot import BatteryExhausted, SunSpotDevice, SunSpotTemperatureProbe
from .teds import TransducerTEDS

__all__ = [
    "BaseProbe",
    "BatteryExhausted",
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
