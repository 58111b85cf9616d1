"""Synthetic physical environment — the ground truth sensors measure.

Substitutes for the physical world around the paper's Sun SPOT temperature
sensors. Each quantity ("temperature", "humidity", ...) is a field over 2-D
space and time:

    value(q, x, t) = base + gradient . x + amplitude * sin(2 pi (t+phase)/period)
                     + sigma * smooth_noise(q, x, t) + sum(active events)

``smooth_noise`` is deterministic: a process-stable hash of (seed,
quantity, location, floor(t/tau)) seeds a unit normal per knot, linearly
interpolated between knots — so any (location, time) resample reproduces
the same value, in any process, which lets tests compare sensor aggregates
against exact ground truth.

Events (a heater switching on, a cold front) add localized step changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..util.rng import stream_hash

__all__ = ["FieldSpec", "FieldEvent", "PhysicalEnvironment"]


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of one scalar field."""

    base: float
    unit: str
    gradient: tuple = (0.0, 0.0)     # per-metre spatial slope
    amplitude: float = 0.0           # diurnal swing (half peak-to-peak)
    period: float = 86400.0          # seconds per cycle
    phase: float = 0.0               # seconds offset into the cycle
    noise_sigma: float = 0.0
    noise_tau: float = 60.0          # noise correlation time (s)


@dataclass
class FieldEvent:
    """A localized additive disturbance active during [start, end)."""

    quantity: str
    center: tuple
    radius: float
    delta: float
    start: float
    end: float

    def contribution(self, quantity: str, location: tuple, t: float) -> float:
        if quantity != self.quantity or not (self.start <= t < self.end):
            return 0.0
        dx = location[0] - self.center[0]
        dy = location[1] - self.center[1]
        distance = math.hypot(dx, dy)
        if distance >= self.radius:
            return 0.0
        return self.delta * (1.0 - distance / self.radius)


class PhysicalEnvironment:
    """Deterministic multi-quantity field sampler."""

    #: Sensible defaults for four common ambient quantities.
    DEFAULT_FIELDS = {
        "temperature": FieldSpec(base=22.0, unit="celsius",
                                 gradient=(0.02, -0.01), amplitude=6.0,
                                 period=86400.0, phase=-21600.0,
                                 noise_sigma=0.3, noise_tau=120.0),
        "humidity": FieldSpec(base=55.0, unit="percent",
                              gradient=(-0.05, 0.02), amplitude=15.0,
                              period=86400.0, phase=21600.0,
                              noise_sigma=1.5, noise_tau=300.0),
        "light": FieldSpec(base=500.0, unit="lux", amplitude=480.0,
                           period=86400.0, phase=-21600.0,
                           noise_sigma=20.0, noise_tau=30.0),
        "pressure": FieldSpec(base=1013.0, unit="hpa", amplitude=3.0,
                              period=43200.0, noise_sigma=0.5,
                              noise_tau=600.0),
    }

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.fields: dict[str, FieldSpec] = dict(self.DEFAULT_FIELDS)
        self.events: list[FieldEvent] = []
        # Noise knots keyed quantity -> knot index -> (x, y) -> value.
        # Knot RNG construction dominates scalar sampling cost; knots only
        # change every `noise_tau` seconds, so caching amortizes them across
        # all the ticks inside one correlation window.
        self._knots: dict[str, dict[int, dict[tuple, float]]] = {}

    # -- configuration -----------------------------------------------------------

    def define_field(self, quantity: str, spec: FieldSpec) -> None:
        self.fields[quantity] = spec

    def add_event(self, event: FieldEvent) -> None:
        if event.quantity not in self.fields:
            raise KeyError(f"unknown quantity {event.quantity!r}")
        self.events.append(event)

    def unit_of(self, quantity: str) -> str:
        return self.fields[quantity].unit

    # -- sampling ------------------------------------------------------------------

    def sample(self, quantity: str, location: tuple, t: float) -> float:
        spec = self.fields.get(quantity)
        if spec is None:
            raise KeyError(f"unknown quantity {quantity!r}")
        value = spec.base
        value += spec.gradient[0] * location[0] + spec.gradient[1] * location[1]
        if spec.amplitude:
            value += spec.amplitude * math.sin(
                2.0 * math.pi * (t + spec.phase) / spec.period)
        if spec.noise_sigma:
            value += spec.noise_sigma * self._smooth_noise(quantity, location, t,
                                                           spec.noise_tau)
        for event in self.events:
            value += event.contribution(quantity, location, t)
        return value

    def sample_many(self, quantity: str, locations: list, t: float) -> list:
        """Sample one quantity at every location; returns a list of floats."""
        return [self.sample(quantity, loc, t) for loc in locations]

    def mean_over(self, quantity: str, locations: list, t: float) -> float:
        """Ground-truth average across several locations (test oracle)."""
        return float(np.mean(self.sample_many(quantity, locations, t)))

    # -- internals ------------------------------------------------------------------

    def _knot(self, quantity: str, location: tuple, index: int) -> float:
        per_quantity = self._knots.setdefault(quantity, {})
        generation = per_quantity.get(index)
        if generation is None:
            # Keep only a sliding window of knot generations: sampling at
            # time t touches knots floor(t/tau) and floor(t/tau)+1, so
            # anything older than index-1 cannot be needed again on the
            # forward-moving clock (recomputing after a rare backward
            # oracle query is deterministic anyway).
            for old in [i for i in per_quantity if i < index - 1]:
                del per_quantity[old]
            generation = per_quantity[index] = {}
        cached = generation.get(location)
        if cached is None:
            # Not builtin hash(): str hashes move with PYTHONHASHSEED, which
            # made the modelled world differ between processes. One tuple,
            # not five names, so "1.0","25.0" and "1.02","5.0" stay apart.
            key = stream_hash((self.seed, quantity, round(location[0], 6),
                               round(location[1], 6), index))
            cached = generation[location] = float(
                np.random.default_rng(key).standard_normal())
        return cached

    def _smooth_noise(self, quantity: str, location: tuple, t: float,
                      tau: float) -> float:
        position = t / tau
        k = math.floor(position)
        frac = position - k
        a = self._knot(quantity, location, k)
        b = self._knot(quantity, location, k + 1)
        return a * (1.0 - frac) + b * frac
