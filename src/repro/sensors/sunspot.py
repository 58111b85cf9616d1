"""Simulated Sun SPOT — the device the paper's experiment used (§VI).

A Sun SPOT (Small Programmable Object Technology) is a battery-powered
Java-programmable mote with onboard sensors and an IEEE 802.15.4 radio. We
model the parts that matter to the framework: a battery that drains per
read and over time (an exhausted device stops answering, which exercises
the lease/failover path), a radio duty-cycle flag, and the onboard
temperature sensor exposed through the standard probe interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim import Environment
from .environment import PhysicalEnvironment
from .probe import BaseProbe, ProbeError
from .teds import TransducerTEDS

__all__ = ["SunSpotDevice", "SunSpotTemperatureProbe", "BatteryExhausted"]


class BatteryExhausted(ProbeError):
    """The device battery is flat; reads fail until recharged."""


class SunSpotDevice:
    """Shared device state for probes riding the same SPOT."""

    BATTERY_MAH = 720.0
    IDLE_DRAIN_MA = 0.2
    READ_COST_MAH = 0.005
    RADIO_COST_MAH = 0.002

    def __init__(self, env: Environment, device_id: str):
        self.env = env
        self.device_id = device_id
        self.capacity_mah = self.BATTERY_MAH
        self.charge_mah = self.BATTERY_MAH
        self.radio_on = True
        self._last_idle_update = env.now
        self.total_reads = 0

    # -- battery ----------------------------------------------------------------

    def _apply_idle_drain(self) -> None:
        elapsed_hours = (self.env.now - self._last_idle_update) / 3600.0
        self.charge_mah = max(0.0, self.charge_mah
                              - self.IDLE_DRAIN_MA * elapsed_hours)
        self._last_idle_update = self.env.now

    @property
    def battery_fraction(self) -> float:
        self._apply_idle_drain()
        return self.charge_mah / self.capacity_mah if self.capacity_mah else 0.0

    @property
    def exhausted(self) -> bool:
        return self.battery_fraction <= 0.0

    def recharge(self) -> None:
        self.charge_mah = self.capacity_mah
        self._last_idle_update = self.env.now

    def consume_read(self) -> None:
        self._apply_idle_drain()
        if self.charge_mah <= 0.0:
            raise BatteryExhausted(f"SPOT {self.device_id}: battery flat")
        cost = self.READ_COST_MAH + (self.RADIO_COST_MAH if self.radio_on else 0.0)
        self.charge_mah = max(0.0, self.charge_mah - cost)
        self.total_reads += 1


class SunSpotTemperatureProbe(BaseProbe):
    """The SPOT's onboard ADT7411 temperature sensor."""

    QUANTITY = "temperature"

    def __init__(self, env: Environment, device: SunSpotDevice,
                 environment: PhysicalEnvironment, location: tuple,
                 rng: Optional[np.random.Generator] = None):
        teds = TransducerTEDS(
            manufacturer="Sun Microsystems", model="SunSPOT/ADT7411",
            serial_number=device.device_id, version="purple-5.0",
            quantity="temperature", unit="celsius",
            min_range=-40.0, max_range=125.0, accuracy=0.5, resolution=0.25)
        super().__init__(env, f"spot-{device.device_id}", teds,
                         read_latency=0.02)
        self.device = device
        self.environment = environment
        self.location = tuple(location)
        self._rng = rng

    def _sense(self, t: float) -> float:
        self.device.consume_read()
        truth = self.environment.sample("temperature", self.location, t)
        # Board self-heating plus ADC noise.
        return truth + 0.2 + self._noise(0.15)
