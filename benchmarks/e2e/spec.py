"""What the benchmark measures: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repo root restates these tables for the driver;
``test_e2e_smoke.py`` fails if the two drift apart. Every number names its
clock: *host* is wall time the simulator takes on this machine, *sim* is
what the modelled federation would take or send (exact per seed).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

__all__ = ["DEFAULT_REPS", "DEFAULT_SECONDS", "DEFAULT_SEED", "END_TO_END",
           "EndToEnd", "PER_LAYER", "SIM_METRICS", "WORKLOADS", "Workload",
           "median", "ops_for", "second_best", "tail"]

DEFAULT_SEED = 2009
DEFAULT_REPS = 4
#: Host seconds one run spends in timed phases, summed over its reps.
#: Must equal ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Ops (reads; sim-second slices; sim-second ticks) the 2-core
    #: reference box completes per host second. Op counts derive from this
    #: table and the requested seconds only — never from a clock — so every
    #: commit and every rep runs the identical simulated schedule.
    ops_per_second: float
    smoke_ops: int


WORKLOADS = (
    Workload(
        "lab_facade_read",
        "paper lab, closed loop: N=4, so per-hop fixed cost (sorcer, rpc, "
        "lookup, spans, expr) dominates and CSP fan-out is near zero",
        ops_per_second=560.0, smoke_ops=150),
    Workload(
        "tree_read_1k",
        "1024 ESPs under a 3-level CSP tree, closed loop: per-sensor cost "
        "(fan-out, send, wire size, same-instant bursts); sampling bypassed",
        ops_per_second=1.6, smoke_ops=3),
    Workload(
        "open_load_sat",
        "open loop at 1.4x capacity: admission, fair queue, deadlines and "
        "read coalescing shed beside serving; idle in the read workloads",
        ops_per_second=9.0, smoke_ops=6),
    Workload(
        "push_stream_1k",
        "no requests: 1024 ESPs sample at 1 Hz and push to a subscriber; "
        "sensors, timers and leases work while Facade, CSP and expr idle",
        ops_per_second=5.2, smoke_ops=4),
)


def ops_for(workload: Workload, seconds: float, reps: int) -> int:
    """Ops in one rep when ``seconds`` of timed work is split over ``reps``."""
    return max(2, round(workload.ops_per_second * seconds / reps))


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str
    better: str
    #: Share of the parent's median by which the metric may worsen; each
    #: is about three times the spread measured over ten seeds (README).
    #: Host timings get the ceiling: the reference box has minute-long
    #: stretches 30 % slower than its best. Sim bounds are wider than the
    #: issue's 1 % because the driver compares medians over *different*
    #: seeds and open_load_sat's latencies move with the seed; for one
    #: seed every sim metric is exact and ``sim_digest``, checked on every
    #: run, is the strict test.
    bound: float
    definition: str


END_TO_END = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25,
             "process spawn (interpreter + imports) to first timed op: "
             "build, settle, warm-up or subscribe; second-best rep"),
    EndToEnd("request_wall_us_p50", "us", "host", "lower", 0.25,
             "median host time per op within a rep (per offered request "
             "on open_load_sat, per tick on push_stream_1k); second-best rep"),
    EndToEnd("requests_per_host_s", "1/s", "host", "higher", 0.25,
             "ops completed correctly / host seconds of the whole timed "
             "phase, so GC and drift count; second-best rep"),
    EndToEnd("peak_rss_mb", "MB", "host", "lower", 0.05,
             "ru_maxrss of the workload subprocess at exit; median over reps"),
    EndToEnd("sim_latency_p50_s", "s", "sim", "lower", 0.25,
             "client-visible latency per request / per push delivery"),
    EndToEnd("sim_latency_tail_s", "s", "sim", "lower", 0.20,
             "highest percentile with >=10 samples beyond it (the maximum "
             "when there are fewer than 40 samples)"),
    EndToEnd("sim_goodput_per_s", "1/s", "sim", "higher", 0.02,
             "requests (deliveries) completed correctly within their "
             "deadline / sim seconds of the timed phase"),
    EndToEnd("msgs_per_request", "count", "sim", "lower", 0.05,
             "net.stats.messages delta / ops"),
    EndToEnd("bytes_per_request", "B", "sim", "lower", 0.05,
             "net.stats payload+header bytes delta / ops"),
    EndToEnd("served_ratio", "ratio", "sim", "higher", 0.08,
             "1 - (failed + shed + wrong-valued) / attempted; a shed is a "
             "miss. Stands in for the issue's failed_ratio, which is 0 on "
             "three workloads and so has no relative bound"),
)

#: End-to-end metrics that must be bit-equal for one seed on any machine.
SIM_METRICS = tuple(m.name for m in END_TO_END if m.clock == "sim")

_SHED_REASONS = ("queue-full", "expired", "expired-in-queue", "quota")

#: (name, unit, better). One run with ``--trace 1`` reports all of them.
PER_LAYER = (
    ("sim.events_per_request", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.dispatch_self_us", "us", "lower"),
    ("sim.sched_pushes", "count", "lower"),
    ("sim.sched_pops", "count", "lower"),
    ("sim.sched_cancels", "count", "lower"),
    ("sim.same_instant_burst_max", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.send_self_us", "us", "lower"),
    ("net.wire_size_self_us", "us", "lower"),
    ("net.rpc_calls", "count", "lower"),
    ("net.rpc_self_us", "us", "lower"),
    ("net.rpc_timeouts", "count", "lower"),
    ("net.dropped", "count", "lower"),
    ("jini.lookups", "count", "lower"),
    ("jini.lookup_self_us", "us", "lower"),
    ("jini.lease_renewals", "count", "lower"),
    ("jini.lease_lost", "count", "lower"),
    ("jini.renew_self_us", "us", "lower"),
    ("sorcer.exertions", "count", "lower"),
    ("sorcer.exert_self_us", "us", "lower"),
    ("sorcer.provider_service_self_us", "us", "lower"),
    ("sorcer.context_self_us", "us", "lower"),
    ("sorcer.retries", "count", "lower"),
    ("sorcer.accessor_hit_ratio", "ratio", "higher"),
    ("core.facade_self_us", "us", "lower"),
    ("core.csp_fanout_per_request", "count", "lower"),
    ("core.csp_self_us", "us", "lower"),
    ("core.csp_coalesced_ratio", "ratio", "higher"),
    ("core.esp_reads", "count", "lower"),
    ("core.esp_buffer_hit_ratio", "ratio", "higher"),
    ("core.esp_self_us", "us", "lower"),
    ("core.esp_events_pushed", "count", "lower"),
    ("expr.evaluations", "count", "lower"),
    ("expr.compiles", "count", "lower"),
    ("expr.eval_self_us", "us", "lower"),
    ("sensors.probe_reads", "count", "lower"),
    ("sensors.sample_calls", "count", "lower"),
    ("sensors.sample_many_calls", "count", "higher"),
    ("sensors.sample_self_us", "us", "lower"),
    ("overload.admitted", "count", "higher"),
) + tuple((f"overload.shed_by_reason.{reason}", "count", "lower")
          for reason in _SHED_REASONS) + (
    ("overload.queue_wait_sim_p50_s", "s", "lower"),
    ("overload.queue_depth_max", "count", "lower"),
    ("overload.admit_self_us", "us", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.budget_denials", "count", "lower"),
    ("resilience.deadline_expired", "count", "lower"),
    ("resilience.breaker_trips", "count", "lower"),
    ("resilience.self_us", "us", "lower"),
    ("load.offered", "count", "higher"),
    ("load.generator_self_us", "us", "lower"),
    ("load.generator_late_s", "s", "lower"),
    ("observability.spans_per_request", "count", "lower"),
    ("observability.span_self_us", "us", "lower"),
    ("observability.metric_updates", "count", "lower"),
    ("observability.metric_self_us", "us", "lower"),
    ("observability.health_tick_self_us", "us", "lower"),
    ("observability.spans_retained", "count", "lower"),
    ("rio.heartbeats", "count", "lower"),
    ("rio.monitor_self_us", "us", "lower"),
    ("client.request_wall_us_tail", "us", "lower"),
    ("client.request_cpu_us_p50", "us", "lower"),
    ("client.drift_ratio", "ratio", "lower"),
    ("client.gc_collections", "count", "lower"),
    ("client.alloc_kb_per_request", "KiB", "lower"),
    ("client.alloc_blocks_per_request", "count", "lower"),
    ("client.attributed_ratio", "ratio", "higher"),
    ("client.trace_overhead_ratio", "ratio", "lower"),
    ("client.contended_reps", "count", "lower"),
    ("client.failed_ratio", "ratio", "lower"),
)


def median(values) -> float:
    return float(statistics.median(values))


def second_best(values, better: str) -> float:
    """The second-best of the reps' values (the best of fewer than three).

    Everything else on the box can only slow a rep down, never speed it
    up, so the reps' values are the undisturbed cost plus one-sided noise:
    a low order statistic estimates that cost far more steadily than the
    median does when a burst of interference covers half the reps, and
    skipping the single best value keeps one lucky rep from setting it."""
    ordered = sorted(values, reverse=(better == "higher"))
    return float(ordered[1 if len(ordered) >= 3 else 0])


#: Candidate tail percentiles, highest first.
_TAIL_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75)


def tail(values) -> tuple:
    """``(percentile, value)`` for the highest percentile that still has
    at least ten samples beyond it; with fewer than 40 samples no rung
    qualifies and the maximum (percentile 1.0) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    for q in _TAIL_LADDER:
        if n * (1.0 - q) >= 10.0:
            return q, float(ordered[min(n - 1, math.ceil(q * n) - 1)])
    return 1.0, float(ordered[-1])
