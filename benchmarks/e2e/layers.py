"""Per-layer attribution: who paid for the host time of the traced pass.

Three sources, all read from outside the program:

* wrapper-span self times (``spans.py``), named ``<layer>.<entry point>``;
* the public ``FlightRecorder(detail=True)`` report: the kernel's own
  scheduler+dispatch row, and one row per kernel process whose time
  *outside* any wrapper span ("glue") is rolled up to the package that
  owns the process;
* counts from public read-side APIs (``MetricsRegistry``, ``net.stats``,
  ``Environment.scheduler_stats()``, provider attributes).

A layer is a ``src/repro`` package. Ratios whose denominator is zero
(the layer is bypassed on that workload) read 0.
"""

from __future__ import annotations

__all__ = ["LAYERS", "layer_metrics", "layer_seconds", "registry_totals"]

LAYERS = ("sim", "net", "jini", "sorcer", "core", "expr", "sensors",
          "overload", "resilience", "load", "observability", "rio")

#: Kernel process name prefix -> owning package. Names come from the
#: ``name=`` each package gives ``env.process`` (or, unnamed, from the
#: generator function). First match wins.
_PROCESS_LAYERS = (
    ("deliver", "net"), ("rpc:", "net"),
    ("lus-", "jini"), ("join", "jini"), ("discovery-", "jini"),
    ("norm-", "jini"), ("mailbox-", "jini"), ("txn-", "jini"),
    ("lds-", "jini"), ("sweeper", "jini"),
    ("exert", "sorcer"), ("service", "sorcer"), ("jobber-", "sorcer"),
    ("spacer", "sorcer"), ("space-", "sorcer"),
    ("csp-collect:", "core"), ("esp-", "core"), ("facade-", "core"),
    ("_op_", "core"), ("get_value", "core"),
    ("read", "sensors"),
    ("health-monitor", "observability"),
    ("monitor", "rio"), ("sla:", "rio"),
    ("load", "load"),
)

#: Flight-recorder rows that are not a process resume: condition fan-in,
#: ``run()``'s stop hook, timers nobody waits on any more.
_COLD_LAYERS = (("RpcEndpoint", "net"), ("AllOf", "sim"), ("AnyOf", "sim"),
                ("Condition", "sim"), ("Environment", "sim"), ("-", "sim"))


def _layer_of(name, table) -> str:
    for prefix, layer in table:
        if name.startswith(prefix):
            return layer
    return "unattributed"


def layer_seconds(recorder, report: dict) -> dict:
    """Host seconds per layer over the traced timed phase, plus the rows
    no rule could place (listed by name so the table can be extended)."""
    seconds = {layer: 0.0 for layer in LAYERS}
    seconds["unattributed"] = 0.0
    for name, self_s in recorder.self_s.items():
        seconds[name.split(".", 1)[0]] += self_s
    # Time covered by top-level spans is already counted above; take it
    # out of the process row it ran in, leaving that process's glue.
    covered: dict = {}
    for process, top_s in recorder.top_s.items():
        layer = (_layer_of(process, _PROCESS_LAYERS) if process is not None
                 else "sim")
        covered[layer] = covered.get(layer, 0.0) + top_s
    rows: dict = {}
    unplaced: dict = {}
    for row in report["attribution"]:
        target = row["target"]
        if row["event_type"] == "kernel":
            layer = "sim"
        elif target.startswith("process:"):
            layer = _layer_of(target[len("process:"):], _PROCESS_LAYERS)
        else:
            layer = _layer_of(target, _COLD_LAYERS)
        rows[layer] = rows.get(layer, 0.0) + row["wall_s"]
        if layer == "unattributed":
            unplaced[target] = round(unplaced.get(target, 0.0)
                                     + row["wall_s"], 6)
    for layer, wall_s in rows.items():
        seconds[layer] += max(0.0, wall_s - covered.get(layer, 0.0))
    return {"seconds": seconds, "unplaced_rows": unplaced}


def registry_totals(registry) -> dict:
    """Counters summed, histograms counted and gauge high-waters maxed
    over labels, keyed by bare metric name (rejections keep their reason)."""
    totals: dict = {}
    for key, metric in registry.iter_items():
        base, _, labels = key.partition("{")
        if "reason=" in labels:
            base += "." + labels.rstrip("}").split("reason=", 1)[1].split(",")[0]
        kind = metric.metric_type
        if kind == "counter":
            totals[base] = totals.get(base, 0.0) + metric.value
        elif kind == "histogram":
            totals[base] = totals.get(base, 0.0) + metric.count
        else:
            totals[base] = max(totals.get(base, 0.0), metric.max_value)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(misses: float, total: float) -> float:
    return max(0.0, 1.0 - misses / total) if total else 0.0


def layer_metrics(recorder, report: dict, seconds: dict, before: dict,
                  after: dict, requests: int, extras: dict) -> dict:
    """Every traced-pass ``per_layer`` metric except the ``client.*`` and
    ``sim.host_us_per_event`` ones (those need the untraced rep too).

    ``seconds`` is :func:`layer_seconds`' per-layer total;
    ``before``/``after`` are ``{"registry", "scheduler", "net", "spans"}``
    snapshots around the timed phase; ``*_self_us`` is per request.
    """
    self_s, calls = recorder.self_s, recorder.calls
    begun = recorder.begun  # invocations of generator-valued entry points

    def delta(name: str) -> float:
        return after["registry"].get(name, 0.0) - before["registry"].get(name, 0.0)

    def self_us(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) * 1e6 / requests

    def prefix_us(prefix: str) -> float:
        return self_us(*(n for n in self_s if n.startswith(prefix)))

    def scheduler(name: str) -> float:
        return after["scheduler"][name] - before["scheduler"][name]

    def glue_us(layer: str) -> float:
        """A layer's total minus its wrapper spans: time in its own kernel
        processes outside any wrapped entry point."""
        spans = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
        return max(0.0, seconds[layer] - spans) * 1e6 / requests

    kernel_s = next(row["wall_s"] for row in report["attribution"]
                    if row["event_type"] == "kernel")
    esp_reads = begun.get("core.esp", 0)
    csp_reads = begun.get("core.csp", 0)
    probe_reads = begun.get("sensors.read", 0)
    accessor_calls = begun.get("sorcer.accessor", 0)
    # Probe reads the samplers did not ask for were buffer misses.
    buffer_misses = max(0.0, probe_reads - delta("esp.samples"))
    metrics = {
        "sim.events_per_request": scheduler("pops") / requests,
        "sim.dispatch_self_us": kernel_s * 1e6 / requests,
        "sim.sched_pushes": scheduler("pushes"),
        "sim.sched_pops": scheduler("pops"),
        "sim.sched_cancels": scheduler("cancels"),
        "sim.same_instant_burst_max": extras["burst_max"],
        "net.messages": after["net"]["messages"] - before["net"]["messages"],
        "net.bytes": after["net"]["total_bytes"] - before["net"]["total_bytes"],
        "net.send_self_us": self_us("net.send"),
        "net.wire_size_self_us": self_us("net.wire_size"),
        "net.rpc_calls": delta("rpc.calls"),
        "net.rpc_self_us": self_us("net.rpc"),
        "net.rpc_timeouts": delta("rpc.timeouts"),
        "net.dropped": after["net"]["dropped"] - before["net"]["dropped"],
        "jini.lookups": calls.get("jini.lookup", 0),
        "jini.lookup_self_us": self_us("jini.lookup"),
        "jini.lease_renewals": calls.get("jini.renew", 0),
        "jini.lease_lost": (delta("resilience.lease_expired")
                            + delta("lease.lost")),
        "jini.renew_self_us": self_us("jini.renew"),
        "sorcer.exertions": delta("exertion.latency"),
        "sorcer.exert_self_us": self_us("sorcer.exert"),
        "sorcer.provider_service_self_us": self_us("sorcer.provider_service"),
        "sorcer.context_self_us": self_us("sorcer.context"),
        "sorcer.retries": delta("exertion.retries"),
        "sorcer.accessor_hit_ratio": _hit_ratio(calls.get("jini.lookup", 0),
                                                accessor_calls),
        "core.facade_self_us": self_us("core.facade"),
        # Reads the CSPs fanned out: ESP/CSP reads the Facade did not ask for.
        "core.csp_fanout_per_request": max(
            0, esp_reads + csp_reads - begun.get("core.facade", 0)) / requests,
        "core.csp_self_us": self_us("core.csp"),
        "core.csp_coalesced_ratio": _ratio(delta("csp.coalesced"), csp_reads),
        "core.esp_reads": esp_reads,
        "core.esp_buffer_hit_ratio": _hit_ratio(buffer_misses, esp_reads),
        "core.esp_self_us": self_us("core.esp"),
        "core.esp_events_pushed": delta("esp.events_pushed"),
        "expr.evaluations": calls.get("expr.eval", 0),
        "expr.compiles": calls.get("expr.compile", 0),
        "expr.eval_self_us": self_us("expr.eval"),
        "sensors.probe_reads": probe_reads,
        "sensors.sample_calls": calls.get("sensors.sample", 0),
        "sensors.sample_many_calls": calls.get("sensors.sample_many", 0),
        "sensors.sample_self_us": prefix_us("sensors."),
        "overload.admitted": delta("overload.admitted"),
        "overload.queue_wait_sim_p50_s": extras["queue_wait_p50_s"],
        "overload.queue_depth_max": after["registry"].get(
            "overload.queue_depth", 0.0),
        "overload.admit_self_us": self_us("overload.admit"),
        "resilience.retries": delta("resilience.retry_scheduled"),
        "resilience.budget_denials": delta("resilience.retry_budget_exhausted"),
        "resilience.deadline_expired": delta("resilience.deadline_exceeded"),
        "resilience.breaker_trips": delta("resilience.breaker_open"),
        "resilience.self_us": prefix_us("resilience."),
        "load.offered": delta("load.offered"),
        "load.generator_self_us": glue_us("load"),
        # Arrivals are kernel timeouts on the sim clock: a slow host makes
        # the run longer, never the generator late.
        "load.generator_late_s": 0.0,
        "observability.spans_per_request": (
            after["spans"] - before["spans"]) / requests,
        "observability.span_self_us": self_us("observability.span"),
        "observability.metric_updates": calls.get("observability.metric", 0),
        "observability.metric_self_us": self_us("observability.metric"),
        "observability.health_tick_self_us": self_us(
            "observability.health_tick"),
        "observability.spans_retained": after["spans"],
        "rio.heartbeats": calls.get("rio.heartbeat", 0),
        "rio.monitor_self_us": self_us("rio.heartbeat") + glue_us("rio"),
    }
    for reason in ("queue-full", "expired", "expired-in-queue", "quota"):
        metrics[f"overload.shed_by_reason.{reason}"] = delta(
            f"overload.rejected.{reason}")
    return metrics
