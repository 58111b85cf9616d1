"""Chaos plans — declarative, seed-derived fault schedules.

A :class:`ChaosPlan` is a list of :class:`FaultEvent`s: what to break,
when, for how long, with what parameters. Plans are *values*: fully
derived from one seed via :func:`ChaosPlan.generate` (one named substream,
no hidden draws at execution time), serializable to canonical JSON
(:meth:`ChaosPlan.to_json` is byte-stable — ``sort_keys`` + compact
separators + rounded floats) and replayable bit-for-bit. The shrinker
works on plans as data: dropping events or narrowing windows yields a new
plan with the same schema, so a minimal counterexample is just another
plan JSON checked into a regression test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..util.canonical import canonical_document
from ..util.rng import substream

__all__ = ["FaultEvent", "ChaosPlan", "FAULT_KINDS"]

#: The fault taxonomy (see DESIGN.md §9). Values are the knobs each kind
#: reads from ``FaultEvent.params``.
FAULT_KINDS = (
    "crash",           # host down for the window, recovered at the end
    "partition",       # symmetric link cut target="a|b", healed at the end
    "partition_asym",  # directed cut target="src>dst", healed at the end
    "link_chaos",      # drop/dup/delay on a link: params drop_rate,
                       # dup_rate, delay, jitter
    "slowdown",        # pure added latency on every message of one host
    "lease_churn",     # force-expire the target service's LUS lease every
                       # params["interval"] seconds inside the window
    "txn_abort",       # abort every ACTIVE transaction at window start
    "tenant-burst",    # one tenant's offered load spikes by params["factor"]
                       # for the window (needs a load engine attached)
)

_ROUND = 3  # decimals kept in generated/serialized floats


def _r(x: float) -> float:
    return round(float(x), _ROUND)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: ``kind`` applied to ``target`` over a window."""

    kind: str
    target: str
    start: float
    duration: float
    params: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "target": self.target,
               "start": _r(self.start), "duration": _r(self.duration)}
        if self.params:
            out["params"] = {k: (_r(v) if isinstance(v, float) else v)
                             for k, v in sorted(self.params.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(kind=data["kind"], target=data["target"],
                   start=float(data["start"]),
                   duration=float(data["duration"]),
                   params=dict(data.get("params", {})))


@dataclass
class ChaosPlan:
    """A seed-stamped fault schedule against one scenario."""

    seed: int
    scenario: str
    events: list
    horizon: float

    @property
    def last_fault_end(self) -> float:
        return max((event.end for event in self.events), default=0.0)

    def replace(self, events) -> "ChaosPlan":
        return ChaosPlan(seed=self.seed, scenario=self.scenario,
                         events=list(events), horizon=self.horizon)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "scenario": self.scenario,
                "horizon": _r(self.horizon),
                "events": [event.to_dict() for event in self.events]}

    def to_json(self) -> str:
        """Canonical byte-stable JSON (one trailing newline)."""
        return canonical_document(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        return cls(seed=int(data["seed"]), scenario=data["scenario"],
                   horizon=float(data["horizon"]),
                   events=[FaultEvent.from_dict(e) for e in data["events"]])

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, targets: "TargetCatalog",
                 scenario: str = "paper-lab", horizon: float = 90.0,
                 min_events: int = 2, max_events: int = 5) -> "ChaosPlan":
        """Derive a plan from ``seed`` alone.

        Every draw comes from the ``("chaos", "plan")`` substream in a
        fixed order, so the same seed always yields the same plan and the
        plan stream is independent of every other consumer of the seed.
        Fault starts fall in ``[10, 0.55 * horizon]`` — the tail of the
        horizon is a guaranteed recovery window, which the convergence
        invariants rely on.
        """
        rng = substream(seed, "chaos", "plan")
        lo, hi = 10.0, horizon * 0.55
        count = int(rng.integers(min_events, max_events + 1))
        events = []
        for _ in range(count):
            kind = targets.kinds[int(rng.integers(len(targets.kinds)))]
            start = _r(lo + float(rng.random()) * (hi - lo))
            duration = _r(2.0 + float(rng.random()) * 10.0)
            target, params = targets.draw(kind, rng)
            events.append(FaultEvent(kind=kind, target=target, start=start,
                                     duration=duration, params=params))
        events.sort(key=lambda e: (e.start, e.kind, e.target))
        return cls(seed=seed, scenario=scenario, events=events,
                   horizon=horizon)


class TargetCatalog:
    """What a scenario offers to break — target pools per fault kind.

    Keeps plan generation scenario-agnostic: the campaign hands the
    generator a catalog listing crashable hosts, partitionable host pairs
    and churnable service names. Pools deliberately exclude single points
    of infrastructure the invariants assume survive (the LUS host, txn
    manager, facade, browser): the engine attacks the *federation*, not
    the experiment harness.
    """

    def __init__(self, crash_hosts, link_pairs, churn_services,
                 kinds=FAULT_KINDS, tenants=()):
        self.crash_hosts = tuple(crash_hosts)
        self.link_pairs = tuple(tuple(pair) for pair in link_pairs)
        self.churn_services = tuple(churn_services)
        #: Tenant names whose offered load a tenant-burst may spike.
        #: Empty (the default) excludes the kind, so catalogs predating
        #: load scenarios generate byte-identical plans.
        self.tenants = tuple(tenants)
        self.kinds = tuple(k for k in kinds if self._supported(k))

    def _supported(self, kind: str) -> bool:
        if kind == "crash":
            return bool(self.crash_hosts)
        if kind in ("partition", "partition_asym", "link_chaos"):
            return bool(self.link_pairs)
        if kind == "slowdown":
            return bool(self.crash_hosts)
        if kind == "lease_churn":
            return bool(self.churn_services)
        if kind == "tenant-burst":
            return bool(self.tenants)
        return kind == "txn_abort"

    def draw(self, kind: str, rng) -> tuple:
        """Pick (target, params) for ``kind`` using draws from ``rng``."""
        if kind == "crash":
            return self.crash_hosts[int(rng.integers(len(self.crash_hosts)))], {}
        if kind == "partition":
            a, b = self.link_pairs[int(rng.integers(len(self.link_pairs)))]
            return f"{a}|{b}", {}
        if kind == "partition_asym":
            a, b = self.link_pairs[int(rng.integers(len(self.link_pairs)))]
            if rng.random() < 0.5:
                a, b = b, a
            return f"{a}>{b}", {}
        if kind == "link_chaos":
            a, b = self.link_pairs[int(rng.integers(len(self.link_pairs)))]
            return f"{a}|{b}", {
                "drop_rate": _r(float(rng.random()) * 0.25),
                "dup_rate": _r(float(rng.random()) * 0.2),
                "delay": _r(float(rng.random()) * 0.3),
                "jitter": _r(float(rng.random()) * 0.1)}
        if kind == "slowdown":
            host = self.crash_hosts[int(rng.integers(len(self.crash_hosts)))]
            return host, {"delay": _r(0.1 + float(rng.random()) * 0.5)}
        if kind == "lease_churn":
            name = self.churn_services[
                int(rng.integers(len(self.churn_services)))]
            return name, {"interval": _r(1.0 + float(rng.random()) * 2.0)}
        if kind == "txn_abort":
            return "*", {}
        if kind == "tenant-burst":
            tenant = self.tenants[int(rng.integers(len(self.tenants)))]
            return tenant, {"factor": _r(4.0 + float(rng.random()) * 8.0)}
        raise ValueError(f"unknown fault kind {kind!r}")


__all__.append("TargetCatalog")
