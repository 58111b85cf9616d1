"""SLO rules and the alert engine — declarative objectives over rollups.

An :class:`Slo` says what *good* looks like for one time-series signal
("exertion failure rate stays under 0.5/s", "the federation status gauge
stays below DOWN") and how impatient the alerting should be (evaluation
window, firing streak). The :class:`SloEngine` evaluates
every rule once per rollup window against the
:class:`~repro.observability.timeseries.TimeSeriesStore` and emits
:class:`Alert` events on the firing and resolved edges only.

Flap control is structural, not statistical: a rule must breach
``for_windows`` consecutive evaluations before it fires and must then be
healthy ``CLEAR_WINDOWS`` consecutive evaluations before it resolves, so a
signal oscillating around the threshold produces one alert pair, not a
stream. All timestamps are simulation seconds; with a fixed seed the alert
sequence is byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

from .timeseries import TimeSeriesStore

__all__ = ["Slo", "Alert", "SloEngine"]

_KINDS = ("rate", "value")


@dataclass(frozen=True)
class Slo:
    """One declarative objective: the signal must stay at or below
    ``objective``.

    ``metric`` names a time-series key. A ``rate`` rule treats it as a
    prefix and sums the matching series' rates (collapsing per-host label
    fan-out); a ``value`` rule reads the latest value of that one gauge.
    """

    #: Consecutive healthy evaluations before a firing rule resolves.
    CLEAR_WINDOWS: ClassVar[int] = 2

    name: str
    metric: str
    objective: float
    kind: str = "rate"          # rate | value
    window: int = 3             # rollup windows aggregated per evaluation
    for_windows: int = 2        # consecutive breaches before firing
    description: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"slo {self.name!r}: unknown kind {self.kind!r}")
        if self.window < 1 or self.for_windows < 1:
            raise ValueError(f"slo {self.name!r}: windows must be >= 1")

    def signal(self, store: TimeSeriesStore) -> Optional[float]:
        if self.kind == "rate":
            return store.sum_rate(self.metric, self.window)
        return store.value(self.metric)

    def breached(self, signal: Optional[float]) -> bool:
        """No data is not a breach: an absent series has observed nothing."""
        return signal is not None and signal > self.objective


@dataclass(frozen=True)
class Alert:
    """One edge of an SLO's state: it started firing, or it resolved."""

    t: float
    slo: str
    state: str          # "firing" | "resolved"
    signal: Optional[float]
    threshold: float
    description: str = ""

    def to_dict(self) -> dict:
        return {"t": self.t, "slo": self.slo, "state": self.state,
                "signal": self.signal, "threshold": self.threshold,
                "description": self.description}


@dataclass
class _SloState:
    firing: bool = False
    breach_streak: int = 0
    clear_streak: int = 0
    last_signal: Optional[float] = None


@dataclass
class SloEngine:
    """Evaluates every registered SLO once per rollup window."""

    store: TimeSeriesStore
    slos: list = field(default_factory=list)
    alerts: list = field(default_factory=list)

    def __post_init__(self):
        self._state: dict[str, _SloState] = {}
        self._listeners: list[Callable[[Alert], None]] = []

    def add(self, slo: Slo) -> Slo:
        if any(existing.name == slo.name for existing in self.slos):
            raise ValueError(f"slo {slo.name!r} already registered")
        self.slos.append(slo)
        self._state[slo.name] = _SloState()
        return slo

    def subscribe(self, listener: Callable[[Alert], None]) -> None:
        """Call ``listener(alert)`` on every firing/resolved edge."""
        self._listeners.append(listener)

    def firing(self) -> list[str]:
        return sorted(name for name, state in self._state.items()
                      if state.firing)

    def evaluate(self, now: float) -> list[Alert]:
        """One evaluation pass; returns the alerts emitted this pass."""
        emitted = []
        for slo in self.slos:
            state = self._state[slo.name]
            signal = slo.signal(self.store)
            state.last_signal = signal
            if slo.breached(signal):
                state.breach_streak += 1
                state.clear_streak = 0
                if not state.firing and state.breach_streak >= slo.for_windows:
                    state.firing = True
                    emitted.append(Alert(now, slo.name, "firing", signal,
                                         slo.objective, slo.description))
            else:
                state.clear_streak += 1
                state.breach_streak = 0
                if state.firing and state.clear_streak >= Slo.CLEAR_WINDOWS:
                    state.firing = False
                    emitted.append(Alert(now, slo.name, "resolved", signal,
                                         slo.objective, slo.description))
        for alert in emitted:
            self.alerts.append(alert)
            for listener in self._listeners:
                listener(alert)
        return emitted

    def snapshot(self) -> dict:
        """Deterministic view of every rule's current standing."""
        rules = []
        for slo in sorted(self.slos, key=lambda s: s.name):
            state = self._state[slo.name]
            rules.append({
                "name": slo.name,
                "metric": slo.metric,
                "kind": slo.kind,
                "op": "<=",
                "objective": slo.objective,
                "threshold": slo.objective,
                "window": slo.window,
                "state": "firing" if state.firing else "ok",
                "signal": state.last_signal,
            })
        return {"slos": rules,
                "alerts": [alert.to_dict() for alert in self.alerts]}
