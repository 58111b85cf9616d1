"""One rep of one workload, in its own process.

``run.py`` spawns this per rep so every rep starts from a cold interpreter
(imports are part of ``setup_s``) and leaves its own ``ru_maxrss``. The
rep builds the scenario, runs the timed phase on one pinned core with GC
left on, judges the outputs and prints one JSON object.

Modes: ``plain`` measures; ``traced`` repeats the same ops under wrapper
spans plus the public flight recorder; ``alloc`` is a short pass under
``tracemalloc`` for what each request leaves allocated.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import tracemalloc
from pathlib import Path

# The checkout's own source, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import clock  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.observability import (FlightRecorder, metrics_registry,  # noqa: E402
                                 tracer_of)


def _pin_to_one_core() -> None:
    """Stay on one core so the scheduler cannot migrate the rep mid-phase
    (the highest allowed one: core 0 takes most interrupts)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _snapshot(env, net) -> dict:
    """Public read-side counters around the timed phase."""
    stats = net.stats
    return {"registry": layers.registry_totals(metrics_registry(net)),
            "scheduler": env.scheduler_stats(),
            "net": {"messages": stats.messages, "dropped": stats.dropped,
                    "payload_bytes": stats.payload_bytes,
                    "header_bytes": stats.header_bytes,
                    "total_bytes": stats.total_bytes},
            "spans": len(tracer_of(net)),
            "now": env.now}


def _sim_outcome(workload, outcome: dict, before: dict, after: dict) -> dict:
    """Sim-clock metrics and the digest that pins them. Everything here is
    a pure function of (workload, seed, ops): equal on every machine."""
    requests = outcome["requests"]
    sim_seconds = after["now"] - before["now"]
    net = {key: after["net"][key] - before["net"][key] for key in after["net"]}
    events = after["scheduler"]["pops"] - before["scheduler"]["pops"]
    latencies = workload.latencies
    percentile, tail_s = spec.tail(latencies)
    digest = hashlib.sha256(json.dumps({
        "workload": workload.name, "now": repr(after["now"]),
        "events": events, "messages": net["messages"],
        "payload_bytes": net["payload_bytes"],
        "header_bytes": net["header_bytes"],
        "latencies": [repr(x) for x in latencies],
        "values": [repr(v) for v in workload.values],
    }, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "sim_latency_p50_s": spec.median(latencies),
        "sim_latency_tail_s": tail_s,
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "sim_goodput_per_s": outcome["goodput"] / sim_seconds,
        "msgs_per_request": net["messages"] / requests,
        "bytes_per_request": net["total_bytes"] / requests,
        "served_ratio": outcome["ok"] / outcome["attempted"],
        "sim_seconds": sim_seconds,
        "events": events,
        "sim_digest": digest,
    }


def run_rep(args) -> dict:
    _pin_to_one_core()
    workload = workloads.WORKLOAD_CLASSES[args.workload](
        args.seed, args.ops, args.n)
    traced = args.mode == "traced"
    recorder = None
    if traced:
        recorder = spans.SpanRecorder(clock.wall)
        spans.install(recorder)  # before build: handlers bind at construction
    workload.build()
    env, net = workload.env, workload.net
    drive = (workloads.SteppedDrive if traced else workloads.PlainDrive)(env)
    flight = None
    if traced:
        flight = FlightRecorder(clock=clock.wall, detail=True).attach(env)
        recorder.start(env)
    if args.mode == "alloc":
        tracemalloc.start()
        allocated = (tracemalloc.get_traced_memory()[0],
                     sys.getallocatedblocks())
    before = _snapshot(env, net)
    collections = sum(gen["collections"] for gen in gc.get_stats())
    op_wall, op_cpu, op_weight = [], [], []
    cpu_started = clock.cpu()
    started = clock.wall()
    setup_s = started - args.spawned_at
    done = 0
    while workload.more(done):
        if recorder is not None:
            recorder.op = done
        c0 = clock.cpu()
        t0 = clock.wall()
        weight = workload.op(done, drive)
        t1 = clock.wall()
        op_wall.append(t1 - t0)
        op_cpu.append(clock.cpu() - c0)
        op_weight.append(weight)
        done += 1
    timed_wall_s = clock.wall() - started
    timed_cpu_s = clock.cpu() - cpu_started
    if traced:
        recorder.stop()
        flight.detach()
    after = _snapshot(env, net)
    outcome = workload.finish()
    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "ops": done, "setup_s": setup_s,
        "timed_wall_s": timed_wall_s, "timed_cpu_s": timed_cpu_s,
        "op_wall_s": op_wall, "op_cpu_s": op_cpu, "op_weight": op_weight,
        "gc_collections": sum(gen["collections"] for gen in gc.get_stats())
        - collections,
        "outcome": outcome,
        "sim": _sim_outcome(workload, outcome, before, after),
    }
    if args.mode == "alloc":
        current, blocks = (tracemalloc.get_traced_memory()[0],
                           sys.getallocatedblocks())
        tracemalloc.stop()
        result["alloc"] = {
            "kb_per_request": (current - allocated[0]) / 1024.0
            / outcome["requests"],
            "blocks_per_request": (blocks - allocated[1]) / outcome["requests"]}
    if traced:
        report = flight.report()
        admission = getattr(getattr(workload, "load_lab", None),
                            "admission", None)
        extras = {
            "burst_max": drive.burst_max,
            "queue_wait_p50_s": (metrics_registry(net).quantile(
                "overload.queue_wait", 0.5, provider=admission.name) or 0.0)
            if admission is not None else 0.0}
        placed = layers.layer_seconds(recorder, report)
        result["layers"] = {
            "metrics": layers.layer_metrics(
                recorder, report, placed["seconds"], before, after,
                outcome["requests"], extras),
            "seconds": placed["seconds"],
            "unplaced_rows": placed["unplaced_rows"]}
        if args.trace_out:
            Path(args.trace_out).write_text(recorder.chrome_trace())
    result["peak_rss_mb"] = clock.peak_rss_mb()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--mode", choices=("plain", "traced", "alloc"),
                        default="plain")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="clock.wall() in the spawning process")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run_rep(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
