"""Probe fault injection — the failure modes field sensors actually exhibit.

Used by failure-injection tests and the fault-tolerance benchmarks: a probe
can get *stuck* (repeats its last value), *drop out* (read errors), turn
*noisy* (variance spike) or *drift* (slow additive bias). Faults can be
scheduled deterministically or arise stochastically from per-read hazard
rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ..util.rng import substream

__all__ = ["FaultMode", "FaultSchedule", "FaultInjector", "ProbeFault"]


class FaultMode(Enum):
    OK = "ok"
    STUCK = "stuck"
    DROPOUT = "dropout"
    NOISY = "noisy"
    DRIFT = "drift"


class ProbeFault(Exception):
    """Raised by a probe read while a DROPOUT fault is active."""


@dataclass
class FaultSchedule:
    """A deterministic fault window."""

    mode: FaultMode
    start: float
    end: float

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


class FaultInjector:
    """Transforms raw sensor values according to active faults.

    Deterministic windows take precedence; otherwise per-read hazard rates
    (probability per read) can trigger transient faults for ``hold`` sim
    seconds.
    """

    NOISE_RATE = 0.0  # per-read hazard of a transient NOISY fault
    DRIFT_PER_SECOND = 0.0  # additive bias slope while drifting

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 dropout_rate: float = 0.0,
                 stuck_rate: float = 0.0,
                 hold: float = 30.0,
                 noisy_sigma: float = 5.0,
                 seed: Optional[int] = None,
                 name: str = "probe"):
        # Preferred seeding: a named substream under the scenario seed, so
        # probe-fault hazards are independent of every other stream (chaos
        # plans, latency, ...) — adding a new consumer elsewhere cannot
        # shift fault timing. An explicit ``rng`` still wins (legacy tests).
        if rng is None:
            rng = (substream(seed, "sensors.faults", name)
                   if seed is not None else np.random.default_rng(0))
        self.rng = rng
        self.dropout_rate = dropout_rate
        self.stuck_rate = stuck_rate
        self.hold = hold
        self.noisy_sigma = noisy_sigma
        self.schedules: list[FaultSchedule] = []
        self._transient: Optional[FaultSchedule] = None
        self._last_value: Optional[float] = None
        self._drift_started: Optional[float] = None
        #: Timestamp of the last hazard draw and its outcome. A second query
        #: at the same sim time must see the same decision, not a fresh roll.
        self._hazard_t: Optional[float] = None
        self._hazard_mode: FaultMode = FaultMode.OK

    def schedule(self, mode: FaultMode, start: float, end: float) -> None:
        if start >= end:
            raise ValueError("fault window must have start < end")
        self.schedules.append(FaultSchedule(mode, start, end))

    def mode_at(self, t: float) -> FaultMode:
        """The fault mode active at ``t``. Idempotent per timestamp: the
        hazard RNG is consulted at most once for each distinct ``t``, so an
        external ``mode_at`` check followed by :meth:`transform` at the same
        sim time sees one consistent fault decision."""
        for window in self.schedules:
            if window.active(t):
                return window.mode
        if self._transient is not None and self._transient.active(t):
            return self._transient.mode
        if self._hazard_t == t:
            return self._hazard_mode
        self._transient = None
        # Hazard draws (at most one transient at a time, one roll per t).
        roll = self.rng.random()
        if roll < self.dropout_rate:
            self._transient = FaultSchedule(FaultMode.DROPOUT, t, t + self.hold)
        elif roll < self.dropout_rate + self.stuck_rate:
            self._transient = FaultSchedule(FaultMode.STUCK, t, t + self.hold)
        elif roll < self.dropout_rate + self.stuck_rate + self.NOISE_RATE:
            self._transient = FaultSchedule(FaultMode.NOISY, t, t + self.hold)
        self._hazard_t = t
        self._hazard_mode = (self._transient.mode if self._transient
                             else FaultMode.OK)
        return self._hazard_mode

    def transform(self, value: float, t: float) -> float:
        """Apply the active fault to a raw value (may raise ProbeFault)."""
        mode = self.mode_at(t)
        if mode is FaultMode.DROPOUT:
            raise ProbeFault(f"sensor dropout at t={t:.1f}")
        if mode is FaultMode.STUCK and self._last_value is not None:
            return self._last_value
        if mode is FaultMode.NOISY:
            value = value + float(self.rng.normal(0.0, self.noisy_sigma))
        if mode is FaultMode.DRIFT or self.DRIFT_PER_SECOND:
            if self._drift_started is None:
                self._drift_started = t
            value = value + self.DRIFT_PER_SECOND * (t - self._drift_started)
        self._last_value = value
        return value
