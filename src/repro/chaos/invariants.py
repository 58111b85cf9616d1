"""End-to-end invariants — what must hold after any fault campaign.

Each invariant is an oracle over a finished run (:class:`RunRecord`):
it returns a list of violation strings, empty meaning the property held.
The built-ins cover the guarantees PRs 1–4 claim:

* ``workload-accounting`` — every request the workload issued completed
  or failed; nothing lost in flight; every exertion span closed.
* ``trace-integrity`` — parent links resolve, children start after
  parents, spans end after they start (the promoted trace helpers below
  are the same ones integration tests use via ``tests/helpers/tracing``).
* ``txn-atomicity`` — no transaction left mid-vote; terminal
  transactions hold no space takes.
* ``space-exactly-once`` — no envelope stranded TAKEN after quiesce.
* ``health-convergence`` — every tracked entity reports UP within K
  evaluation windows of the last fault clearing.
* ``breaker-liberation`` — no circuit breaker is wedged: after heal +
  quiesce every breaker would admit a call (the half-open probe-leak
  class of bug).
* ``sim-sanity`` — sim time within the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from ..observability.health import HealthMonitor

__all__ = [
    "RunRecord", "InvariantResult", "Invariant", "OverloadGraceful",
    "builtin_invariants", "evaluate_invariants",
    # promoted trace helpers (tests/helpers/tracing re-exports these)
    "assert_span_tree", "assert_no_orphan_spans", "spans_between",
    "tree_shape", "trace_integrity_violations",
]


# ---------------------------------------------------------------------------
# Trace helpers — promoted from tests/helpers/tracing.py so production
# invariants and tests share one implementation.
# ---------------------------------------------------------------------------

def _match_spec(tracer, span, spec, path: str, errors: list) -> bool:
    pattern, children = spec
    if not fnmatchcase(span.name, pattern):
        return False
    if children is Ellipsis:
        return True
    actual = tracer.children(span)
    used: set = set()
    last_start = float("-inf")
    for child_spec in children:
        found = None
        for index, candidate in enumerate(actual):
            if index in used or candidate.started_at < last_start:
                continue
            if _match_spec(tracer, candidate, child_spec,
                           f"{path}/{span.name}", errors):
                found = index
                break
        if found is None:
            errors.append(
                f"under {path}/{span.name}: no child matching "
                f"{child_spec[0]!r} (starting at or after t={last_start:g}); "
                f"actual children: {[c.name for c in actual]}")
            return False
        used.add(found)
        last_start = actual[found].started_at
    return True


def assert_span_tree(tracer, spec, root=None):
    """Assert some recorded trace tree matches ``spec``; returns its root.

    With ``root`` given, that specific tree must match. Otherwise every
    recorded root is tried and one must match. Names match with
    :mod:`fnmatch` wildcards; ``Ellipsis`` children mean "any"; siblings
    starting at the same simulated time match in any permutation (their
    order is tie-breaker territory, deliberately not part of the
    determinism contract).
    """
    if root is not None:
        errors: list = []
        assert _match_spec(tracer, root, spec, "", errors), \
            f"span tree rooted at {root.name!r} does not match {spec[0]!r}: " \
            + "; ".join(errors)
        return root
    roots = tracer.roots()
    for candidate in roots:
        if _match_spec(tracer, candidate, spec, "", []):
            return candidate
    raise AssertionError(
        f"no recorded trace matches {spec[0]!r}; roots: "
        f"{[r.name for r in roots]}")


def trace_integrity_violations(tracer) -> list:
    """Violation strings for broken parent links / time-travelling spans."""
    violations = []
    for span in tracer.spans:
        if span.parent_id is not None:
            parent = tracer.get(span.parent_id)
            if parent is None:
                violations.append(
                    f"span {span.span_id} ({span.name!r}) links to unknown "
                    f"parent {span.parent_id!r}")
            elif parent.started_at > span.started_at:
                violations.append(
                    f"span {span.span_id} ({span.name!r}) starts before "
                    f"its parent")
        if span.ended_at is not None and span.ended_at < span.started_at:
            violations.append(
                f"span {span.span_id} ({span.name!r}) ends before it starts")
    return violations


def assert_no_orphan_spans(tracer) -> None:
    """Every parent link resolves and no span ends before it starts."""
    violations = trace_integrity_violations(tracer)
    assert not violations, "; ".join(violations)


def spans_between(tracer, start: float, end: float, kind: str = None) -> list:
    """Spans that *started* within ``[start, end]`` simulation seconds."""
    return [span for span in tracer.spans
            if start <= span.started_at <= end
            and (kind is None or span.kind == kind)]


def tree_shape(tracer, span):
    """The tree as nested ``(name, status, [children...])`` tuples —
    a hashable shape for determinism comparisons."""
    return (span.name, span.status,
            tuple(tree_shape(tracer, child)
                  for child in tracer.children(span)))


# ---------------------------------------------------------------------------
# Run record + invariant protocol
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Everything an oracle may inspect about one finished campaign run."""

    env: object
    net: object
    plan: object
    health: object = None          # HealthMonitor (or None)
    tracer: object = None
    txn_managers: tuple = ()
    spaces: tuple = ()
    issued: int = 0
    completed: int = 0
    failed: int = 0
    inflight: int = 0
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InvariantResult:
    name: str
    ok: bool
    violations: tuple = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "violations": list(self.violations)}


class Invariant:
    """Base class: subclasses set ``name`` and implement ``violations``."""

    name = "invariant"

    def violations(self, record: RunRecord) -> list:  # pragma: no cover
        raise NotImplementedError

    def check(self, record: RunRecord) -> InvariantResult:
        found = self.violations(record)
        return InvariantResult(self.name, not found, tuple(found))


class WorkloadAccounting(Invariant):
    """No request lost: issued == completed + failed, nothing in flight,
    and every exertion span reached a terminal state."""

    name = "workload-accounting"

    def violations(self, record: RunRecord) -> list:
        out = []
        if record.issued != record.completed + record.failed:
            out.append(
                f"issued {record.issued} != completed {record.completed} "
                f"+ failed {record.failed}")
        if record.inflight:
            out.append(f"{record.inflight} request(s) still in flight "
                       "after quiesce")
        if record.tracer is not None:
            open_exerts = [span for span in record.tracer.spans
                           if span.kind == "exert" and span.ended_at is None]
            if open_exerts:
                out.append(
                    f"{len(open_exerts)} exert span(s) never closed, e.g. "
                    f"{open_exerts[0].name!r}")
        return out


class TraceIntegrity(Invariant):
    name = "trace-integrity"

    def violations(self, record: RunRecord) -> list:
        if record.tracer is None:
            return []
        return trace_integrity_violations(record.tracer)[:5]


class TxnAtomicity(Invariant):
    """2PC left nothing half-done: no txn stuck VOTING, and terminal
    transactions hold no space takes."""

    name = "txn-atomicity"

    def violations(self, record: RunRecord) -> list:
        out = []
        terminal = set()
        for manager in record.txn_managers:
            for txn_id, txn_state in manager.states().items():
                state = txn_state.value
                if state == "voting":
                    out.append(f"txn {txn_id} stuck in VOTING")
                if state in ("committed", "aborted"):
                    terminal.add(txn_id)
        for space in record.spaces:
            for txn_id in space.taking_transactions():
                if txn_id in terminal:
                    out.append(
                        f"space holds takes for terminal txn {txn_id}")
        return out


class SpaceExactlyOnce(Invariant):
    """No envelope stranded TAKEN after quiesce: a worker that took an
    entry either finished it (DONE) or its transaction restored it."""

    name = "space-exactly-once"

    def violations(self, record: RunRecord) -> list:
        out = []
        for space in record.spaces:
            for envelope_id, state in space.envelope_states().items():
                if state.value == "taken":
                    out.append(f"envelope {envelope_id} left TAKEN")
        return out


class HealthConvergence(Invariant):
    """Every tracked entity is UP at the end and reached UP within K
    evaluation windows of the last fault clearing."""

    name = "health-convergence"

    def __init__(self, windows: int = 25):
        self.windows = windows

    def violations(self, record: RunRecord) -> list:
        if record.health is None:
            return []
        out = []
        model = record.health.model
        for entity, status in sorted(model.statuses().items()):
            if status != "UP":
                out.append(f"{entity} ended {status}")
        bound = (record.plan.last_fault_end
                 + self.windows * HealthMonitor.INTERVAL)
        for entity in sorted({t["entity"] for t in model.transitions}):
            last = [t for t in model.transitions if t["entity"] == entity][-1]
            if last["to"] == "UP" and last["t"] > bound:
                out.append(
                    f"{entity} only recovered at t={last['t']:.1f} "
                    f"(> {bound:.1f} = last fault end + {self.windows} "
                    "windows)")
        return out


class BreakerLiberation(Invariant):
    """After heal + quiesce, no breaker refuses forever: an OPEN breaker
    half-opens once its reset timeout passes (the next call probes), so
    only a HALF_OPEN breaker can wedge — every probe slot pinned by a call
    that never reported back (:meth:`CircuitBreaker.pinned_probes`)."""

    name = "breaker-liberation"

    def violations(self, record: RunRecord) -> list:
        out = []
        now = record.env.now
        for host_name in sorted(record.net.hosts):
            registry = record.net.hosts[host_name].shared.get(
                "breaker_registry")
            if registry is None:
                continue
            for key, breaker in registry.items():
                pinned = breaker.pinned_probes(now)
                if pinned:
                    out.append(
                        f"{host_name}: breaker {key} wedged half-open "
                        f"({pinned} probe(s) pinned)")
        return out


class OverloadGraceful(Invariant):
    """Saturation stayed graceful: reads ``record.extra["load"]`` (an
    :meth:`~repro.load.engine.OpenLoopEngine.summary`), vacuously passing
    when no load engine ran. Checks

    * accounting — every offered request is exactly one of completed /
      rejected / failed, nothing in flight after drain (no lost-but-acked
      exertions);
    * bounded latency — admitted work's p99 stays under the tenants' max
      deadline plus slack (queues are bounded, so waiting is too). The
      default slack is one RPC timeout: chaos faults (slowdown links,
      crashes mid-call) legitimately stretch an admitted request by up
      to a timeout beyond its deadline, while unbounded queueing shows
      up as tails of tens of seconds;
    * goodput floor — completed-within-deadline work never collapses
      below ``GOODPUT_FLOOR`` of offered load, however hard the engine
      pushed past saturation;
    * failure ceiling — shed load must be *rejected*, not failed: typed
      rejections are the control plane working, failures are not.
    """

    name = "overload-graceful"

    FAILURE_CEILING = 0.25  # share of offered load that may fail
    P99_SLACK = 5.0  # p99 bound: this far past the longest deadline
    GOODPUT_FLOOR = 0.3  # share of offered load that must be goodput

    def violations(self, record: RunRecord) -> list:
        load = record.extra.get("load")
        if not load:
            return []
        out = []
        total = load["total"]
        offered = total["offered"]
        accounted = total["completed"] + total["rejected"] + total["failed"]
        if offered != accounted:
            out.append(f"load accounting: offered {offered} != completed "
                       f"{total['completed']} + rejected {total['rejected']} "
                       f"+ failed {total['failed']}")
        if load.get("inflight"):
            out.append(f"{load['inflight']} load request(s) still in flight "
                       "after drain")
        bound = load.get("deadline_max", 0.0) + self.P99_SLACK
        p99 = total["latency"].get("p99")
        if p99 is not None and p99 > bound:
            out.append(f"admitted-work p99 {p99:.3f}s exceeds bound "
                       f"{bound:.3f}s")
        if offered:
            goodput_rate = total["goodput"] / offered
            if goodput_rate < self.GOODPUT_FLOOR:
                out.append(f"goodput collapsed: {goodput_rate:.3f} of "
                           f"offered load < floor {self.GOODPUT_FLOOR}")
            failure_rate = total["failed"] / offered
            if failure_rate > self.FAILURE_CEILING:
                out.append(f"failure rate {failure_rate:.3f} over ceiling "
                           f"{self.FAILURE_CEILING} — overload must shed "
                           "typed rejections, not failures")
        return out


class SimSanity(Invariant):
    """The kernel's own contract: time inside the horizon."""

    name = "sim-sanity"

    def violations(self, record: RunRecord) -> list:
        out = []
        if record.env.now > record.plan.horizon + 1e-6:
            out.append(f"sim time {record.env.now} ran past horizon "
                       f"{record.plan.horizon}")
        return out


def builtin_invariants(convergence_windows: int = 25) -> list:
    return [
        WorkloadAccounting(),
        TraceIntegrity(),
        TxnAtomicity(),
        SpaceExactlyOnce(),
        HealthConvergence(windows=convergence_windows),
        BreakerLiberation(),
        OverloadGraceful(),
        SimSanity(),
    ]


def evaluate_invariants(record: RunRecord,
                        invariants: Optional[list] = None) -> list:
    """Run every oracle; returns :class:`InvariantResult` per invariant."""
    invariants = invariants if invariants is not None else builtin_invariants()
    return [invariant.check(record) for invariant in invariants]
