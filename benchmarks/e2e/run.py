"""E-E2E: what one Facade request costs, and which layer pays for it.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
        [--reps R] [--trace [0|1]] [--smoke] [--repeat-check]
        [--scheduler heap|calendar|both] [--n N] [--out DIR]

Runs the named workloads (all four by default, reps interleaved across
them) against the unmodified ``repro`` package, each rep in a fresh
subprocess, prints every metric by name and unit, and checks the outputs.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last workload
run: the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
Exits non-zero when a correctness check fails.

See README.md beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402

#: A rep whose timed phase took this much more wall than CPU time was
#: descheduled by something else on the box; it is reported and re-run.
CONTENDED_RATIO = 1.10
MAX_RERUNS = 2
#: Hard stop for one rep, well inside the driver's 180 s per run.
REP_TIMEOUT_S = 150
#: ``--smoke`` fleet size for the two grid workloads.
SMOKE_FLEET = 64


class HarnessError(RuntimeError):
    """A rep could not be run or its outputs could not be trusted."""


def spawn_rep(workload: str, seed: int, ops: int, mode: str, *, n=None,
              scheduler=None, trace_out=None) -> dict:
    """Run one rep in a fresh interpreter and return what it printed."""
    env = dict(os.environ)
    # PhysicalEnvironment derives its noise knots from hash() of a tuple
    # holding a str, so the modelled world differs between interpreters
    # unless string hashing is pinned. Pin it: same seed, same inputs.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_SHUFFLE_SEED", None)
    if scheduler is not None:
        env["REPRO_KERNEL_SCHEDULER"] = scheduler
    else:
        env.pop("REPRO_KERNEL_SCHEDULER", None)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--ops", str(ops), "--mode", mode,
               "--spawned-at", repr(clock.wall())]
    if n is not None:
        command += ["--n", str(n)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} ({mode}) exceeded "
                           f"{REP_TIMEOUT_S}s") from exc
    if done.returncode != 0:
        raise HarnessError(f"{workload} ({mode}) exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _contended(rep: dict) -> bool:
    return rep["timed_wall_s"] > CONTENDED_RATIO * rep["timed_cpu_s"]


def _per_request(rep: dict) -> list:
    """Host seconds per request for every op that carried requests."""
    return [wall / weight for wall, weight
            in zip(rep["op_wall_s"], rep["op_weight"]) if weight]


def end_to_end(reps: list) -> dict:
    """The ten end-to-end metrics from the untraced reps of one workload:
    host timings take the second-best rep (see ``spec.second_best``), sim
    ones are equal on every rep."""
    sim = reps[0]["sim"]
    metrics = {
        "setup_s": spec.second_best(
            [rep["setup_s"] for rep in reps], "lower"),
        "request_wall_us_p50": spec.second_best(
            [spec.median(_per_request(rep)) for rep in reps], "lower") * 1e6,
        "requests_per_host_s": spec.second_best(
            [rep["outcome"]["completed_ops"] / rep["timed_wall_s"]
             for rep in reps], "higher"),
        "peak_rss_mb": spec.median(rep["peak_rss_mb"] for rep in reps),
    }
    metrics.update({name: sim[name] for name in spec.SIM_METRICS})
    return metrics


def client_metrics(plain: dict, traced: dict, alloc: dict,
                   contended: int) -> dict:
    """The harness's own diagnostics, from one untraced rep, the traced
    rep and the short allocation pass."""
    per_request = _per_request(plain)
    quarter = max(1, len(per_request) // 4)
    cpu = [cpu_s / weight for cpu_s, weight
           in zip(plain["op_cpu_s"], plain["op_weight"]) if weight]
    outcome = plain["outcome"]
    return {
        "client.request_wall_us_tail": spec.tail(per_request)[1] * 1e6,
        "client.request_cpu_us_p50": spec.median(cpu) * 1e6,
        "client.drift_ratio": (spec.median(per_request[-quarter:])
                               / spec.median(per_request[:quarter])),
        "client.gc_collections": plain["gc_collections"],
        "client.alloc_kb_per_request": alloc["alloc"]["kb_per_request"],
        "client.alloc_blocks_per_request": alloc["alloc"]["blocks_per_request"],
        "client.attributed_ratio": sum(
            traced["layers"]["seconds"][layer] for layer in layers.LAYERS)
        / traced["timed_wall_s"],
        "client.trace_overhead_ratio": (traced["timed_wall_s"]
                                        / plain["timed_wall_s"]),
        "client.contended_reps": contended,
        "client.failed_ratio": 1.0 - outcome["ok"] / outcome["attempted"],
        "sim.host_us_per_event": (plain["timed_wall_s"] * 1e6
                                  / plain["sim"]["events"]),
    }


def run_sets(selected: list, args, seed: int, schedulers=(None,)) -> list:
    """Run every selected workload, one set of reps per entry of
    ``schedulers`` (the kernel scheduler that set runs under; ``None`` is
    the program's default). Reps are interleaved across workloads and
    successive rounds go to alternating sets, so that sets to be compared
    see the same stretches of a noisy box; then (``--trace``) come the
    traced and allocation passes. Returns one ``{workload: summary}`` per
    set."""
    sets = len(schedulers)
    reps = args.reps if args.reps is not None else (
        1 if args.trace or args.smoke else spec.DEFAULT_REPS)
    fleet = args.n if args.n is not None else (SMOKE_FLEET if args.smoke
                                               else None)
    ops = {w.name: (w.smoke_ops if args.smoke else
                    spec.ops_for(w, args.seconds, spec.DEFAULT_REPS))
           for w in selected}

    def spawn(name: str, mode: str, scheduler, **extra) -> dict:
        size = max(2, ops[name] // 8) if mode == "alloc" else ops[name]
        return spawn_rep(name, seed, size, mode, n=fleet,
                         scheduler=scheduler, **extra)

    kept = [{w.name: [] for w in selected} for _ in range(sets)]
    contended = [{w.name: [] for w in selected} for _ in range(sets)]
    for round_ in range(reps * sets):
        for workload in selected:
            name = workload.name
            mine = contended[round_ % sets][name]
            scheduler = schedulers[round_ % sets]
            rep = spawn(name, "plain", scheduler)
            while _contended(rep) and len(mine) < MAX_RERUNS:
                mine.append(rep)  # reported in the summary, never dropped
                rep = spawn(name, "plain", scheduler)
            kept[round_ % sets][name].append(rep)
    out = []
    for scheduler, plain_of, contended_of in zip(schedulers, kept, contended):
        summaries = {}
        for workload in selected:
            name = workload.name
            summary = summarise(name, seed, scheduler, plain_of[name],
                                contended_of[name])
            digests = {rep["sim"]["sim_digest"]
                       for rep in plain_of[name] + contended_of[name]}
            if args.trace:
                trace_out = (Path(args.out) / f"trace-{name}.json"
                             if args.out is not None else None)
                traced = spawn(name, "traced", scheduler,
                               trace_out=trace_out)
                digests.add(traced["sim"]["sim_digest"])
                summary["per_layer"] = {
                    **traced["layers"]["metrics"],
                    **client_metrics(plain_of[name][0], traced,
                                     spawn(name, "alloc", scheduler),
                                     len(contended_of[name]))}
                summary["layer_seconds"] = traced["layers"]["seconds"]
                summary["unplaced_rows"] = traced["layers"]["unplaced_rows"]
                summary["traced_wall_s"] = traced["timed_wall_s"]
            summary["digests_agree"] = len(digests) == 1
            summary["correct"] = (summary["digests_agree"]
                                  and summary["failed"] == 0
                                  and summary["wrong"] == 0)
            summaries[name] = summary
        out.append(summaries)
    return out


def summarise(name: str, seed: int, scheduler, plain: list,
              contended: list) -> dict:
    """What the untraced reps of one workload say."""
    first = plain[0]
    return {
        "workload": name, "seed": seed, "ops_per_rep": first["ops"],
        "scheduler": scheduler or "default",
        "end_to_end": end_to_end(plain),
        "sim_digest": first["sim"]["sim_digest"],
        "tail_percentile": first["sim"]["tail_percentile"],
        "latency_samples": first["sim"]["latency_samples"],
        "outcome": first["outcome"],
        "attempted": sum(rep["outcome"]["attempted"] for rep in plain),
        "failed": sum(rep["outcome"]["untyped_failures"] for rep in plain),
        "wrong": sum(rep["outcome"]["wrong"] for rep in plain),
        "contended_reps": [{"timed_wall_s": rep["timed_wall_s"],
                            "timed_cpu_s": rep["timed_cpu_s"]}
                           for rep in contended],
        "reps": [{key: rep[key] for key in
                  ("setup_s", "timed_wall_s", "timed_cpu_s", "peak_rss_mb",
                   "gc_collections")} for rep in plain],
    }


# -- reporting ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_summary(summary: dict) -> None:
    outcome = summary["outcome"]
    print(f"\n== {summary['workload']}  seed={summary['seed']} "
          f"ops/rep={summary['ops_per_rep']} reps={len(summary['reps'])} "
          f"scheduler={summary['scheduler']}")
    print(f"   per rep: attempted={outcome['attempted']} ok={outcome['ok']} "
          f"failed={outcome['failed']} shed={outcome['shed']} "
          f"wrong={outcome['wrong']}   contended reps re-run: "
          f"{len(summary['contended_reps'])}")
    print(f"   sim_digest={summary['sim_digest']} "
          f"agree={summary['digests_agree']}")
    print(f"   {'end-to-end metric':<24}{'value':>14} {'unit':<6}"
          f"{'clock':<6}{'better':<8}bound")
    for metric in spec.END_TO_END:
        note = ""
        if metric.name == "sim_latency_tail_s":
            note = (f"  (p{summary['tail_percentile'] * 100:g} of "
                    f"{summary['latency_samples']} samples)")
        print(f"   {metric.name:<24}"
              f"{_fmt(summary['end_to_end'][metric.name]):>14} "
              f"{metric.unit:<6}{metric.clock:<6}{metric.better:<8}"
              f"{metric.bound:.0%}{note}")
    if "per_layer" not in summary:
        return
    print(f"   host seconds by layer over the traced timed phase "
          f"({summary['traced_wall_s']:.3f} s):")
    for layer in layers.LAYERS + ("unattributed",):
        seconds = summary["layer_seconds"][layer]
        print(f"     {layer:<14}{seconds:>10.4f} s "
              f"{seconds / summary['traced_wall_s']:>7.1%}")
    for target, seconds in sorted(summary["unplaced_rows"].items()):
        print(f"     unplaced row {target}: {seconds} s")
    print(f"   {'per-layer metric':<42}{'value':>14} unit")
    for name, unit, _better in spec.PER_LAYER:
        print(f"   {name:<42}{_fmt(summary['per_layer'][name]):>14} {unit}")


def result_line(summary: dict, traced_pass: bool) -> str:
    if traced_pass:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit, _better in spec.PER_LAYER}
    else:
        metrics = {m.name: {"value": summary["end_to_end"][m.name],
                            "unit": m.unit} for m in spec.END_TO_END}
    return json.dumps({"correct": summary["correct"],
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def _worse_by(metric, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def repeat_check(selected: list, args) -> bool:
    """Two interleaved sets of runs of the same code, on the default seed
    and one other: host metrics must agree within their bounds, sim
    metrics and the digest exactly."""
    agreed = True
    for seed in (args.seed, args.seed + 1):
        first, second = run_sets(selected, args, seed,
                                 (args.scheduler, args.scheduler))
        for workload in selected:
            a, b = first[workload.name], second[workload.name]
            print(f"\n== repeat-check {workload.name} seed={seed}")
            for metric in spec.END_TO_END:
                x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
                if metric.clock == "sim":
                    fine = x == y
                    detail = "identical" if fine else f"{x!r} != {y!r}"
                else:
                    worse = max(_worse_by(metric, x, y), _worse_by(metric, y, x))
                    fine = worse <= metric.bound
                    detail = f"{_fmt(x)} vs {_fmt(y)} ({worse:+.1%})"
                agreed &= fine
                print(f"   {'ok  ' if fine else 'FAIL'} {metric.name:<24}{detail}")
            same = a["sim_digest"] == b["sim_digest"] and a["correct"] and b["correct"]
            agreed &= same
            print(f"   {'ok  ' if same else 'FAIL'} sim_digest and correctness")
    return agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    names = [w.name for w in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help="workload seed; the program sees only the "
                             "inputs generated from it")
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                        help="host seconds of timed work in the default "
                             f"{spec.DEFAULT_REPS} reps on the reference box; "
                             "sets the fixed op count per rep")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"untraced reps (default {spec.DEFAULT_REPS}, "
                             "or 1 with --trace or --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add the traced and allocation passes and "
                             "report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts and 64-sensor fleets")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run everything twice on two seeds and compare")
    parser.add_argument("--scheduler", choices=("heap", "calendar", "both"),
                        default=None,
                        help="set REPRO_KERNEL_SCHEDULER for the program; "
                             "'both' runs each and requires equal sim_digest")
    parser.add_argument("--n", type=int, default=None,
                        help="fleet size of the grid workloads, for "
                             "out-of-band exploration")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and, with --trace, "
                             "Chrome trace-event files")
    args = parser.parse_args(argv)
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        raise HarnessError("no src/repro beside benchmarks/: nothing to measure")
    selected = [w for w in spec.WORKLOADS
                if args.workload in (None, w.name)]
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    schedulers = ("calendar", "heap") if args.scheduler == "both" \
        else (args.scheduler,)
    if args.repeat_check:
        if len(schedulers) == 2:
            parser.error("--repeat-check compares one scheduler with itself")
        return 0 if repeat_check(selected, args) else 1
    runs = run_sets(selected, args, args.seed, schedulers)
    correct = True
    for results in runs:
        for workload in selected:
            print_summary(results[workload.name])
            correct &= results[workload.name]["correct"]
    if len(runs) == 2:
        for workload in selected:
            same = (runs[0][workload.name]["sim_digest"]
                    == runs[1][workload.name]["sim_digest"])
            print(f"\n{workload.name}: sim_digest calendar vs heap "
                  f"{'equal' if same else 'DIFFERENT'}")
            correct &= same
    if args.out is not None:
        (Path(args.out) / "results.json").write_text(
            json.dumps(runs, indent=1, sort_keys=True))
    print()
    for workload in selected:
        print(result_line(runs[0][workload.name], bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        sys.exit(2)
