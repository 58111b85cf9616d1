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

:meth:`PhysicalEnvironment.sample_many` reads a whole probe fleet in one
call: the spatial terms are array operations over cached per-fleet
coordinate arrays and the noise knots are cached per correlation window, so
a 100k-probe tick costs a handful of array ops. It produces
bitwise-identical floats to per-probe :meth:`~PhysicalEnvironment.sample`
calls — every elementwise operation mirrors the scalar expression tree
exactly (IEEE-754 doubles round identically either way), and the
transcendental terms (``sin``, ``hypot``) are always computed scalar-side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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

    #: Sensible defaults covering every probe driver we ship.
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

    def __init__(self, seed: int = 0, fields: Optional[dict] = None):
        self.seed = seed
        self.fields: dict[str, FieldSpec] = dict(self.DEFAULT_FIELDS)
        if fields:
            self.fields.update(fields)
        self.events: list[FieldEvent] = []
        # Noise knots keyed quantity -> knot index -> (x, y) -> value.
        # Knot RNG construction dominates scalar sampling cost; knots only
        # change every `noise_tau` seconds, so caching amortizes them across
        # all the ticks inside one correlation window.
        self._knots: dict[str, dict[int, dict[tuple, float]]] = {}
        # Per-fleet coordinate arrays, keyed by id() of the locations list
        # (a strong reference to the list is kept so the id stays valid).
        self._blocks: dict[int, tuple] = {}
        # Per-(quantity, knot index, fleet) knot value arrays.
        self._knot_arrays: dict[tuple, object] = {}

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
        """Sample one quantity at every location; returns a list of floats.

        Bitwise-identical to ``[self.sample(quantity, loc, t) for loc in
        locations]`` — the array path replicates the scalar expression tree
        term by term, and active :class:`FieldEvent` contributions always go
        through the scalar code (``math.hypot`` has no bitwise-equal numpy
        spelling).
        """
        spec = self.fields.get(quantity)
        if spec is None:
            raise KeyError(f"unknown quantity {quantity!r}")
        xs, ys = self._block(locations)
        values = spec.base + (spec.gradient[0] * xs + spec.gradient[1] * ys)
        if spec.amplitude:
            values = values + spec.amplitude * math.sin(
                2.0 * math.pi * (t + spec.phase) / spec.period)
        if spec.noise_sigma:
            position = t / spec.noise_tau
            k = math.floor(position)
            frac = position - k
            a = self._knot_array(quantity, locations, k)
            b = self._knot_array(quantity, locations, k + 1)
            values = values + spec.noise_sigma * (a * (1.0 - frac) + b * frac)
        out = values.tolist()
        if self.events:
            # Scalar on purpose: sample() adds every event's contribution
            # (zero or not) in list order, and math.hypot inside
            # contribution() has no bitwise-equal numpy spelling.
            for i, loc in enumerate(locations):
                value = out[i]
                for ev in self.events:
                    value += ev.contribution(quantity, loc, t)
                out[i] = value
        return out

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

    def _block(self, locations: list) -> tuple:
        """Cached (xs, ys) coordinate arrays for a fleet's location list."""
        entry = self._blocks.get(id(locations))
        if entry is not None and entry[0] is locations:
            return entry[1], entry[2]
        xs = np.array([loc[0] for loc in locations], dtype=np.float64)
        ys = np.array([loc[1] for loc in locations], dtype=np.float64)
        if len(self._blocks) > 64:
            self._blocks.clear()
            self._knot_arrays.clear()
        self._blocks[id(locations)] = (locations, xs, ys)
        return xs, ys

    def _knot_array(self, quantity: str, locations: list, index: int):
        """Knot values for a whole fleet at one knot index, cached per
        correlation window so each tick inside the window reuses it."""
        key = (quantity, index, id(locations))
        arr = self._knot_arrays.get(key)
        if arr is None:
            for old in [k for k in self._knot_arrays
                        if k[0] == quantity and k[2] == id(locations)
                        and k[1] < index - 1]:
                del self._knot_arrays[old]
            arr = np.array([self._knot(quantity, loc, index)
                            for loc in locations], dtype=np.float64)
            self._knot_arrays[key] = arr
        return arr
