"""Command-line interface: run canned SenSORCER scenarios from a shell.

Usage (also via ``python -m repro``)::

    python -m repro inventory   [--seed N]        # Fig 2 service listing
    python -m repro experiment  [--seed N]        # the §VI six-step run
    python -m repro value NAME  [--seed N]        # read one sensor service
    python -m repro farm        [--seed N] [--fields K] [--sensors M]
    python -m repro topology    [--seed N]        # logical network tree
    python -m repro status      [--seed N] [--json]   # health tree
    python -m repro health      [--seed N] [--json]   # SLOs + alerts
    python -m repro load        [--seed N] [--json]   # open-loop overload
    python -m repro profile [SCENARIO] [--spill DB]   # flight recorder
    python -m repro history --db DB list|keys|series|stats|profile
    python -m repro chaos run --seeds N [--json]      # fault campaigns
    python -m repro chaos shrink --chaos-seed S       # minimize a failure
    python -m repro chaos replay --plan plan.json     # re-run a plan
    python -m repro snapshot --at T --out F.snap      # checkpoint a run
    python -m repro restore F.snap [--verify-only]    # replay + continue
    python -m repro lint PATH...                      # determinism lint

Everything runs a fresh, seeded simulation; same seed, same output.
``lint`` is the odd one out: a static pass over source files, no
simulation (and no scenario dependencies — scenario imports stay lazy so
the lint path works in minimal environments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .util.canonical import canonical_document

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SenSORCER reproduction — sensor-federated networks "
                    "on a deterministic simulator")
    parser.add_argument("--seed", type=int, default=2009,
                        help="scenario seed (default: 2009)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory",
                   help="deploy the paper lab and list registered services")

    sub.add_parser("experiment",
                   help="run the paper's six-step Fig 3 experiment")

    value = sub.add_parser("value", help="read one sensor service's value")
    value.add_argument("name", help="service name, e.g. Neem-Sensor")

    farm = sub.add_parser("farm", help="field-subnet monitoring demo")
    farm.add_argument("--fields", type=int, default=3)
    farm.add_argument("--sensors", type=int, default=4)

    sub.add_parser("topology",
                   help="compose the Fig 3 network and print the tree")

    sub.add_parser("traffic",
                   help="run the experiment and print per-kind traffic")

    watch = sub.add_parser("watch", help="sample sensors over time")
    watch.add_argument("names", nargs="+", help="service names to watch")
    watch.add_argument("--interval", type=float, default=5.0)
    watch.add_argument("--rounds", type=int, default=6)

    sub.add_parser("admin",
                   help="registry admin view: registrations + leases")

    trace = sub.add_parser(
        "trace",
        help="run the six-step experiment and print its span trees")
    trace.add_argument("--all", action="store_true", dest="show_all",
                       help="include infrastructure traces (lookups, lease "
                            "renewals), not just exertion-rooted trees")
    trace.add_argument("--no-annotations", action="store_true",
                       help="hide span annotations (retries, breaker events)")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the metrics registry table")
    trace.add_argument("--out", metavar="PATH",
                       help="dump the trace + metrics as JSON lines to PATH")
    trace.add_argument("--since", type=float, metavar="T",
                       help="only trees rooted at or after simulated second T")
    trace.add_argument("--until", type=float, metavar="T",
                       help="only trees rooted at or before simulated "
                            "second T")
    trace.add_argument("--limit", type=int, metavar="N",
                       help="print at most the first N matching trees")

    for name, summary in (("status", "network -> node -> provider health "
                                     "tree after the six-step experiment"),
                          ("health", "SLO standing, alert log and status "
                                     "transitions")):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the canonical JSON snapshot instead")
        cmd.add_argument("--until", type=float, default=30.0,
                         help="simulated seconds to run before the snapshot "
                              "(default: 30)")
        cmd.add_argument("--quiet-lab", action="store_true",
                         help="skip the six-step experiment, observe an "
                              "idle lab")

    load = sub.add_parser(
        "load",
        help="open-loop multi-tenant load against the protected lab "
             "(admission control, quotas, weighted-fair dispatch)")
    load.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the canonical JSON summary instead")
    load.add_argument("--duration", type=float, default=8.0,
                      help="simulated seconds of traffic (default: 8)")
    load.add_argument("--scale", type=float, default=1.5,
                      help="offered-load multiplier over the default tenant "
                           "mix; >=1.5 is past the knee (default: 1.5)")
    load.add_argument("--curve", action="store_true",
                      help="sweep the E-LOAD saturation curve (fresh lab "
                           "per point) instead of one operating point")
    load.add_argument("--smoke", action="store_true",
                      help="with --curve: the short 3-point smoke sweep")

    profile = sub.add_parser(
        "profile",
        help="wall-clock flight recorder over a scenario run: top-N "
             "attribution, scheduler internals, service times")
    profile.add_argument("scenario", nargs="?", default="six-steps",
                         choices=["six-steps", "quiet", "soak"],
                         help="six-steps (default): the Fig 3 experiment; "
                              "quiet: an idle lab; soak: a long steady-"
                              "state run (default horizon 21600s, ~1M "
                              "events)")
    profile.add_argument("--until", type=float, default=None,
                         help="simulated seconds to record (default: 30; "
                              "soak: 21600)")
    profile.add_argument("--top", type=int, default=12,
                         help="attribution rows to print (default: 12)")
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full report as canonical JSON "
                              "(wall-clock fields vary run to run)")
    profile.add_argument("--spill", metavar="PATH",
                         help="also spill telemetry windows + this profile "
                              "to a sqlite history file at PATH")
    profile.add_argument("--run-id",
                         help="history run id for --spill "
                              "(default: <scenario>-seed<seed>)")

    history = sub.add_parser(
        "history",
        help="query a spilled sqlite telemetry history: past runs, "
             "windowed series, p50/p95 over any horizon")
    history.add_argument("--db", metavar="PATH", required=True,
                         help="history sqlite file (written by "
                              "profile --spill or HistoryStore)")
    hist_sub = history.add_subparsers(dest="history_command", required=True)
    h_list = hist_sub.add_parser("list", help="recorded runs")
    h_keys = hist_sub.add_parser("keys",
                                 help="metric keys with spilled windows")
    h_series = hist_sub.add_parser(
        "series", help="one metric's windowed series for a run")
    h_stats = hist_sub.add_parser(
        "stats", help="aggregate one metric over a time horizon")
    h_profile = hist_sub.add_parser(
        "profile", help="a run's spilled flight-recorder attribution")
    for cmd in (h_list, h_keys, h_series, h_stats, h_profile):
        cmd.add_argument("--json", action="store_true", dest="as_json",
                         help="emit canonical JSON instead")
    for cmd in (h_keys, h_series, h_stats, h_profile):
        cmd.add_argument("--run", required=True, metavar="ID",
                         help="run id (see: history list)")
    h_keys.add_argument("--prefix", default="",
                        help="restrict to keys with this prefix")
    for cmd in (h_series, h_stats):
        cmd.add_argument("key", help="metric key, e.g. "
                                     "'rpc.rtt{host=facade-host}'")
        cmd.add_argument("--since", type=float, metavar="T",
                         help="windows ending at or after simulated "
                              "second T")
        cmd.add_argument("--until", type=float, metavar="T",
                         help="windows ending at or before simulated "
                              "second T")
    h_series.add_argument("--limit", type=int, metavar="N",
                          help="keep only the newest N windows")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault campaigns: run, shrink, replay (exit 1 when "
             "any invariant fails)")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run", help="run N seeded campaigns and judge the invariants")
    chaos_shrink = chaos_sub.add_parser(
        "shrink", help="minimize one failing seed's fault schedule")
    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-run a (possibly shrunk) plan JSON bit-for-bit")
    for cmd in (chaos_run, chaos_shrink, chaos_replay):
        cmd.add_argument("--scenario", default="paper-lab",
                         help="scenario under attack (default: paper-lab)")
        cmd.add_argument("--horizon", type=float, default=90.0,
                         help="simulated seconds per campaign run "
                              "(default: 90)")
        cmd.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the canonical JSON verdicts instead")
    chaos_run.add_argument("--seeds", type=int, default=10,
                           help="number of campaign seeds (default: 10)")
    chaos_run.add_argument("--seed-start", type=int, default=1,
                           help="first campaign seed (default: 1)")
    chaos_shrink.add_argument("--chaos-seed", type=int, required=True,
                              help="the failing campaign seed to shrink")
    chaos_shrink.add_argument("--max-runs", type=int, default=60,
                              help="re-run budget for shrinking "
                                   "(default: 60)")
    chaos_shrink.add_argument("--out", metavar="PATH",
                              help="write the minimal plan JSON to PATH")
    chaos_shrink.add_argument("--warm", action="store_true",
                              help="probe shrink candidates by forking from "
                                   "one shared settled prefix instead of "
                                   "rebuilding per probe (minimum is re-"
                                   "validated cold; falls back to cold "
                                   "shrinking if it does not reproduce)")
    chaos_replay.add_argument("--plan", metavar="PATH", required=True,
                              help="plan JSON emitted by run/shrink")

    snap = sub.add_parser(
        "snapshot",
        help="run a recorded program and write a crash-safe checkpoint of "
             "the whole federation at a chosen simulated time")
    snap.add_argument("--at", type=float, required=True, metavar="T",
                      help="simulated second at which to capture the state")
    snap.add_argument("--out", metavar="PATH", required=True,
                      help="snapshot file to write (atomic: temp file, "
                           "fsync, rename)")
    snap.add_argument("--program", default="status",
                      choices=["status", "campaign"],
                      help="recorded program kind (default: status)")
    snap.add_argument("--until", type=float, default=30.0,
                      help="status program: simulated seconds to run "
                           "(default: 30)")
    snap.add_argument("--quiet-lab", action="store_true",
                      help="status program: skip the six-step experiment")
    snap.add_argument("--scenario", default="paper-lab",
                      help="campaign program: scenario under attack "
                           "(default: paper-lab)")
    snap.add_argument("--horizon", type=float, default=90.0,
                      help="campaign program: simulated seconds "
                           "(default: 90)")
    snap.add_argument("--chaos-seed", type=int, default=1,
                      help="campaign program: seed whose derived fault "
                           "plan to run (default: 1)")

    restore = sub.add_parser(
        "restore",
        help="rebuild a snapshot's program in this process, verify the "
             "replayed state digest at the checkpoint, then continue")
    restore.add_argument("snapshot", metavar="PATH",
                         help="snapshot file written by `repro snapshot`")
    restore.add_argument("--verify-only", action="store_true",
                         help="stop after the digest check at the "
                              "checkpoint instant; do not continue the run")
    restore.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the continued run's canonical primary "
                              "output (status/verdict JSON) instead of a "
                              "summary")
    restore.add_argument("--spill", metavar="DB",
                         help="record this resumed run in a sqlite history "
                              "file, marked with the snapshot's digest")
    restore.add_argument("--run-id",
                         help="history run id for --spill "
                              "(default: restore-<program kind>)")

    lint = sub.add_parser(
        "lint",
        help="whole-program static analysis over python sources "
             "(DET/SIM/RES/CTX/API rules; exits 1 on findings)")
    lint.add_argument("paths", nargs="+", metavar="PATH",
                      help="files or directories to lint")
    lint.add_argument("--rule", action="append", dest="rule_ids",
                      metavar="RULE",
                      help="restrict to this rule id or family prefix, "
                           "e.g. RES001 or RES (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="canonical JSON report")
    lint.add_argument("--sarif", action="store_true",
                      help="SARIF 2.1.0 report (canonical, byte-stable)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings listed in this baseline file")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="write current findings as a baseline and exit 0")
    return parser


def _lab(seed: int):
    from .scenarios import build_paper_lab
    lab = build_paper_lab(seed=seed)
    lab.settle(6.0)
    return lab


def cmd_inventory(args, out) -> int:
    lab = _lab(args.seed)
    items = sorted(lab.lus.lookup_all(), key=lambda i: i.name() or "")
    out.write(f"{len(items)} services registered "
              f"(t={lab.env.now:.1f}s simulated):\n")
    for item in items:
        types = "/".join(t for t in item.service.type_names if t != "Servicer")
        out.write(f"  {item.name():<26} {item.service.host:<16} {types}\n")
    return 0


def _run_six_steps(lab):
    # The experiment body lives with the snapshot programs so a CLI run
    # and a snapshot/restore replay are the same event sequence.
    from .snapshot.programs import six_step_experiment
    return lab.env.run(until=lab.env.process(
        six_step_experiment(lab.browser), name="six-steps"))


def cmd_experiment(args, out) -> int:
    lab = _lab(args.seed)
    value = _run_six_steps(lab)
    out.write(lab.browser.render_info_pane() + "\n\n")
    out.write(f"New-Composite value: {value:.3f} C "
              f"(t={lab.env.now:.1f}s simulated)\n")
    return 0


def cmd_value(args, out) -> int:
    lab = _lab(args.seed)
    from .core import BrowserError
    try:
        value = lab.env.run(until=lab.env.process(
            lab.browser.get_value(args.name)))
    except BrowserError as exc:
        out.write(f"error: {exc}\n")
        return 1
    out.write(f"{args.name}: {value:.3f}\n")
    return 0


def cmd_farm(args, out) -> int:
    from .scenarios import build_farm
    farm = build_farm(seed=args.seed, n_fields=args.fields,
                      sensors_per_field=args.sensors)
    farm.settle(6.0)
    browser = farm.browser
    temp_sensors = {
        field: [esp.name for esp in esps
                if esp.probe.teds.quantity == "temperature"]
        for field, esps in farm.fields.items()}

    def session():
        values = {}
        for field, names in temp_sensors.items():
            yield from browser.compose_service(field, names)
            values[field] = yield from browser.get_value(field)
        return values

    values = farm.env.run(until=farm.env.process(session()))
    out.write(f"farm with {args.fields} fields x {args.sensors} stations:\n")
    for field in sorted(values):
        truth = farm.ground_truth_field_mean(field, "temperature")
        out.write(f"  {field:<10} {values[field]:7.2f} C "
                  f"(ground truth {truth:7.2f} C)\n")
    return 0


def cmd_topology(args, out) -> int:
    lab = _lab(args.seed)
    _run_six_steps(lab)
    out.write(lab.browser.render_topology() + "\n")
    return 0


def cmd_traffic(args, out) -> int:
    from .metrics import render_traffic
    lab = _lab(args.seed)
    _run_six_steps(lab)
    out.write(render_traffic(
        lab.net.stats,
        title=f"Traffic after the six-step experiment "
              f"(t={lab.env.now:.1f}s simulated)") + "\n")
    return 0


def cmd_watch(args, out) -> int:
    lab = _lab(args.seed)
    lab.env.run(until=lab.env.process(
        lab.browser.watch(args.names, interval=args.interval,
                          rounds=args.rounds)))
    out.write(lab.browser.render_watch_pane() + "\n")
    return 0


def cmd_admin(args, out) -> int:
    lab = _lab(args.seed)
    lab.env.run(until=lab.env.process(lab.browser.registry_admin()))
    out.write(lab.browser.render_admin_pane() + "\n")
    return 0


def cmd_trace(args, out) -> int:
    from .observability import (
        dump_jsonl,
        metrics_registry,
        render_span_tree,
        tracer_of,
    )
    lab = _lab(args.seed)
    _run_six_steps(lab)
    tracer = tracer_of(lab.net)
    registry = metrics_registry(lab.net)
    roots = tracer.roots()
    if not args.show_all:
        # Infrastructure chatter (lookup registrations, lease renewals)
        # roots hundreds of tiny trees; default to the exertion traffic.
        roots = [root for root in roots if root.kind in ("exert", "serve")]
    candidates = len(roots)
    if args.since is not None:
        roots = [root for root in roots if root.started_at >= args.since]
    if args.until is not None:
        roots = [root for root in roots if root.started_at <= args.until]
    matched = len(roots)
    if args.limit is not None and matched > args.limit:
        roots = roots[:args.limit]
    shown = (f"showing {len(roots)} of {matched} matching tree(s)"
             if matched != candidates or len(roots) != matched
             else f"showing {len(roots)} tree(s)")
    out.write(f"{len(tracer)} spans recorded, {shown} "
              f"(t={lab.env.now:.1f}s simulated)\n\n")
    out.write(render_span_tree(tracer, roots,
                               annotations=not args.no_annotations) + "\n")
    if args.metrics:
        from .metrics import render_metrics
        out.write("\n" + render_metrics(registry.snapshot()) + "\n")
    if args.out:
        lines = dump_jsonl(args.out, tracer, registry)
        out.write(f"\nwrote {lines} JSON lines to {args.out}\n")
    return 0


def _health_snapshot(args):
    """Deploy the lab, optionally run the six steps, settle to a fixed
    simulation time and take one management-plane snapshot."""
    lab = _lab(args.seed)
    if not args.quiet_lab:
        _run_six_steps(lab)
    if lab.env.now < args.until:
        lab.env.run(until=args.until)
    return lab, lab.health.snapshot()


def cmd_status(args, out) -> int:
    from .observability import render_status, status_json
    lab, snapshot = _health_snapshot(args)
    if args.as_json:
        # Deliberately no kernel line here: scheduler stats describe the
        # substrate, and the canonical JSON stays byte-identical under
        # tie-break shuffling (DESIGN §12).
        out.write(status_json(snapshot, seed=args.seed))
    else:
        out.write(render_status(
            snapshot, title=f"SenSORCER network (seed {args.seed})") + "\n")
        sched = lab.env.scheduler_stats()
        out.write(f"\nkernel: {sched['kind']} scheduler, "
                  f"{sched['pending']} pending, pushes={sched['pushes']} "
                  f"pops={sched['pops']} cancels={sched['cancels']}\n")
    return 0


def cmd_health(args, out) -> int:
    from .observability import render_health, status_json
    lab, snapshot = _health_snapshot(args)
    if args.as_json:
        out.write(status_json(snapshot, seed=args.seed))
    else:
        out.write(render_health(snapshot) + "\n")
    return 0


def _fmt_latency(latency: dict) -> tuple:
    return tuple("-" if latency[q] is None else f"{latency[q]:.3f}"
                 for q in ("p50", "p95", "p99"))


def cmd_load(args, out) -> int:
    from .load import SWEEP_FULL, SWEEP_SMOKE, build_load_lab, saturation_curve
    from .metrics import render_table
    if args.curve:
        sweep = SWEEP_SMOKE if args.smoke else SWEEP_FULL
        curve = saturation_curve(seed=args.seed, multipliers=sweep,
                                 duration=args.duration)
        if args.as_json:
            out.write(canonical_document(curve))
            return 0
        rows = []
        for point in curve["points"]:
            p50, p95, p99 = _fmt_latency(point["latency"])
            rows.append([f"{point['scale']:g}x", point["offered"],
                         point["completed"], point["goodput"],
                         point["rejected"], point["failed"],
                         f"{point['goodput_rate']:.3f}"
                         if point["goodput_rate"] is not None else "-",
                         p50, p99])
        out.write(render_table(
            ["scale", "offered", "completed", "goodput", "rejected",
             "failed", "goodput%", "p50", "p99"], rows,
            title=f"E-LOAD saturation curve (seed {args.seed}, "
                  f"{curve['duration']:g}s per point)") + "\n")
        return 0
    load_lab = build_load_lab(seed=args.seed, duration=args.duration,
                              scale=args.scale)
    summary = load_lab.run()
    if args.as_json:
        out.write(canonical_document(summary))
        return 0
    rows = []
    for name, entry in summary["tenants"].items():
        p50, p95, p99 = _fmt_latency(entry["latency"])
        shed = ",".join(f"{reason}:{count}"
                        for reason, count in entry["rejected"].items())
        rows.append([name, f"{entry['rate']:g}/s", f"{entry['weight']:g}",
                     entry["offered"], entry["completed"], entry["goodput"],
                     entry["rejected_total"], entry["failed"],
                     p50, p99, shed or "-"])
    total = summary["total"]
    out.write(render_table(
        ["tenant", "rate", "wt", "offered", "completed", "goodput",
         "rejected", "failed", "p50", "p99", "shed-by-reason"], rows,
        title=f"open-loop load (seed {args.seed}, scale {args.scale:g}, "
              f"{summary['duration']:g}s)") + "\n")
    goodput_rate = total["goodput_rate"]
    out.write(f"\ntotal: {total['offered']} offered, "
              f"{total['completed']} completed, "
              f"{total['goodput']} within deadline"
              + (f" ({goodput_rate:.1%})" if goodput_rate is not None else "")
              + f", {total['rejected']} shed, {total['failed']} failed\n")
    snap = load_lab.admission.snapshot()
    out.write(f"admission: {snap['inflight']} in flight, "
              f"{snap['queued']} queued after drain, "
              f"service EWMA {snap['service_ewma']:.3f}s\n")
    return 0


#: Sim seconds between history spills while profiling; must stay well
#: inside the health store's retention horizon (120 windows at 1s) so
#: periodic and one-shot spills produce identical databases.
_SPILL_PERIOD = 60.0


def cmd_profile(args, out) -> int:
    from .observability import (
        FlightRecorder,
        HistoryStore,
        metrics_registry,
        profile_run,
    )
    until = args.until
    if until is None:
        until = 21600.0 if args.scenario == "soak" else 30.0
    lab = _lab(args.seed)
    recorder = FlightRecorder()
    store = None
    run_id = args.run_id or f"{args.scenario}-seed{args.seed}"
    if args.spill:
        store = HistoryStore(args.spill)
    try:
        if store is not None:
            store.begin_run(run_id, args.scenario, args.seed,
                            lab.env.scheduler_stats()["kind"], replace=True)
        with profile_run(lab.env, recorder):
            if args.scenario == "six-steps":
                _run_six_steps(lab)
            t = lab.env.now
            while t < until:
                t = min(t + _SPILL_PERIOD, until) if store else until
                lab.env.run(until=t)
                if store is not None:
                    store.spill_windows(run_id, lab.health.store)
        report = recorder.report(registry=metrics_registry(lab.net),
                                 top=args.top)
        if store is not None:
            store.spill_profile(run_id, report)
            store.finish_run(run_id, lab.env.now, recorder.events,
                             meta={"scheduler": lab.env.scheduler_stats()})
    finally:
        # A failed run must not leave the WAL connection (and its lock on
        # the history database) open.
        if store is not None:
            store.close()
    if args.as_json:
        out.write(canonical_document(report))
        return 0
    _render_profile(out, args, report, run_id if store else None)
    return 0


def _render_profile(out, args, report: dict, spilled_run: Optional[str]) -> None:
    from .metrics import render_table
    out.write(f"flight recorder: {args.scenario} (seed {args.seed}), "
              f"{report['events']} events in {report['wall_s']:.3f}s wall "
              f"({report['events_per_sec']:,.0f} events/s)\n")
    out.write(f"attributed {report['attributed_share']:.1%} of wall time "
              f"(callbacks {report['callback_share']:.1%}, "
              f"kernel {report['kernel_share']:.1%})\n\n")
    rows = [[row["event_type"], row["target"], row["count"],
             f"{row['wall_s'] * 1000:.2f}", f"{row['share']:.1%}"]
            for row in report["attribution"]]
    truncated = report.get("truncated")
    if truncated:
        rows.append(["...", f"({truncated['rows']} more)",
                     truncated["count"],
                     f"{truncated['wall_s'] * 1000:.2f}", ""])
    out.write(render_table(
        ["event type", "target", "count", "wall ms", "share"], rows,
        title=f"top {args.top} by wall time") + "\n")
    sched = report["scheduler"]
    out.write(f"\nscheduler[{sched['kind']}]: "
              + " ".join(f"{k}={sched[k]}" for k in sorted(sched)
                         if k != "kind") + "\n")
    services = report.get("services") or {}
    for section in ("providers", "rpc"):
        entries = services.get(section)
        if not entries:
            continue
        out.write(f"\n{section} (sim-side service time):\n")
        for label, stats in entries.items():
            out.write(f"  {label:<24} n={stats['count']:<6} "
                      f"mean={stats['mean']:.4f}s p50={stats['p50']:.4f}s "
                      f"p95={stats['p95']:.4f}s\n")
    if spilled_run:
        out.write(f"\nspilled run {spilled_run!r} to {args.spill}\n")


def cmd_history(args, out) -> int:
    from .metrics import render_table
    from .observability import HistoryStore
    import os
    if not os.path.exists(args.db):
        out.write(f"error: no history database at {args.db}\n")
        return 2
    with HistoryStore(args.db) as store:
        if args.history_command == "list":
            runs = store.runs()
            if args.as_json:
                out.write(canonical_document(runs))
                return 0
            rows = [[r["run_id"], r["scenario"], str(r["seed"]),
                     r["scheduler"],
                     "-" if r["sim_end"] is None else f"{r['sim_end']:g}",
                     "-" if r["events"] is None else r["events"],
                     "yes" if r["finished"] else "no",
                     "-" if r["restored_from"] is None
                     else r["restored_from"][:12]]
                    for r in runs]
            out.write(render_table(
                ["run", "scenario", "seed", "scheduler", "sim end",
                 "events", "finished", "restored-from"], rows,
                title=f"{len(runs)} recorded run(s) in {args.db}") + "\n")
            return 0
        if store.run(args.run) is None:
            out.write(f"error: no run {args.run!r} in {args.db} "
                      "(see: history list)\n")
            return 2
        if args.history_command == "keys":
            keys = store.keys(args.run, prefix=args.prefix)
            if args.as_json:
                out.write(canonical_document(keys))
            else:
                for key in keys:
                    out.write(key + "\n")
            return 0
        if args.history_command == "profile":
            rows = store.profile(args.run)
            if args.as_json:
                out.write(canonical_document(rows))
                return 0
            out.write(render_table(
                ["event type", "target", "count", "wall ms", "share"],
                [[r["event_type"], r["target"], r["count"],
                  f"{r['wall_s'] * 1000:.2f}", f"{r['share']:.1%}"]
                 for r in rows],
                title=f"spilled profile for {args.run}") + "\n")
            return 0
        if args.history_command == "stats":
            stats = store.stats(args.run, args.key,
                                since=args.since, until=args.until)
            if args.as_json:
                out.write(canonical_document(stats))
                return 0
            if not stats["windows"]:
                out.write(f"{args.key}: no windows in horizon\n")
                return 0
            out.write(f"{args.key} [{args.run}] "
                      f"t={stats['first_t']:g}..{stats['last_t']:g}: "
                      + " ".join(f"{k}={stats[k]:g}" if k != "kind"
                                 else f"kind={stats[k]}"
                                 for k in sorted(stats)
                                 if k not in ("first_t", "last_t"))
                      + "\n")
            return 0
        # series
        windows = store.series(args.run, args.key, since=args.since,
                               until=args.until, limit=args.limit)
        if args.as_json:
            out.write(canonical_document(windows))
            return 0
        fields = ("value", "delta", "rate", "count", "p50", "p95", "max")
        rows = [[f"{w['t']:g}", w["kind"]]
                + ["-" if w.get(f) is None
                   else (f"{w[f]:g}" if isinstance(w[f], float) else w[f])
                   for f in fields]
                for w in windows]
        out.write(render_table(["t", "kind", *fields], rows,
                               title=f"{args.key} [{args.run}], "
                                     f"{len(windows)} window(s)") + "\n")
        return 0


def _chaos_runner(args):
    from .chaos import CampaignConfig, CampaignRunner
    config = CampaignConfig(horizon=args.horizon, scenario_seed=args.seed)
    return CampaignRunner(scenario=args.scenario, config=config)


def _write_run_line(out, run) -> None:
    verdict = "PASS" if run["ok"] else "FAIL"
    recovery = run["recovery"]
    mttr = (f"{recovery['mttr']:.1f}s" if recovery["mttr"] is not None
            else "-")
    bad = ",".join(result["name"] for result in run["invariants"]
                   if not result["ok"])
    out.write(f"  seed {run['seed']:<4} {verdict}  "
              f"events={len(run['plan']['events'])} "
              f"issued={run['workload']['issued']} "
              f"failed={run['workload']['failed']} "
              f"incidents={recovery['incidents']} mttr={mttr}"
              + (f"  [{bad}]" if bad else "") + "\n")


def cmd_chaos(args, out) -> int:
    from .chaos import ChaosPlan, shrink_failing_seed
    runner = _chaos_runner(args)
    if args.chaos_command == "run":
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
        summary = runner.run(seeds)
        if args.as_json:
            out.write(canonical_document(summary))
        else:
            out.write(f"chaos campaign: {args.scenario}, "
                      f"{len(seeds)} seed(s), horizon {args.horizon:g}s\n")
            for run in summary["runs"]:
                _write_run_line(out, run)
            mean = (f"{summary['mean_mttr']:.1f}s"
                    if summary["mean_mttr"] is not None else "-")
            out.write(f"passed {summary['passed']}/{len(seeds)}, "
                      f"mean MTTR {mean}\n")
        return 0 if summary["failed"] == 0 else 1
    if args.chaos_command == "shrink":
        result, verdict = shrink_failing_seed(runner, args.chaos_seed,
                                              max_runs=args.max_runs,
                                              warm=args.warm)
        if result is None:
            out.write(f"seed {args.chaos_seed} passes every invariant; "
                      "nothing to shrink\n")
            return 0
        plan_json = result.plan.to_json()
        if args.out:
            from .util.atomicio import atomic_write_text
            atomic_write_text(args.out, plan_json)
        if args.as_json:
            out.write(plan_json)
        else:
            bad = ", ".join(r["name"] for r in verdict["invariants"]
                            if not r["ok"])
            out.write(f"seed {args.chaos_seed} violates: {bad}\n")
            out.write(f"shrunk {len(verdict['plan']['events'])} -> "
                      f"{len(result.plan.events)} event(s) in "
                      f"{result.runs} re-run(s)"
                      + (" (budget exhausted)" if result.exhausted else "")
                      + (f" [probes: {result.mode}]" if args.warm else "")
                      + "\n")
            for event in result.plan.events:
                out.write(f"  {event.kind} {event.target} "
                          f"@{event.start:g}s for {event.duration:g}s"
                          + (f" {event.params}" if event.params else "")
                          + "\n")
            if args.out:
                out.write(f"minimal plan written to {args.out}\n")
        return 1
    # replay
    with open(args.plan, encoding="utf-8") as fh:
        plan = ChaosPlan.from_json(fh.read())
    run = runner.run_plan(plan)
    if args.as_json:
        out.write(canonical_document(run))
    else:
        out.write(f"replaying {len(plan.events)} event(s) from "
                  f"{args.plan}\n")
        _write_run_line(out, run)
    return 0 if run["ok"] else 1


def cmd_snapshot(args, out) -> int:
    from .snapshot.programs import campaign_spec, run_program, status_spec
    if args.program == "status":
        horizon = args.until
        spec = status_spec(seed=args.seed, until=args.until,
                           six_steps=not args.quiet_lab)
    else:
        from .chaos import CampaignConfig, CampaignRunner
        horizon = args.horizon
        config = CampaignConfig(horizon=args.horizon,
                                scenario_seed=args.seed)
        runner = CampaignRunner(scenario=args.scenario, config=config)
        spec = campaign_spec(runner.plan_for(args.chaos_seed).to_dict(),
                             scenario=args.scenario)
    if not 0 <= args.at < horizon:
        out.write(f"error: --at {args.at:g} is outside the run's horizon "
                  f"[0, {horizon:g}); the checkpoint would never fire\n")
        return 2
    run_program(spec, checkpoint_at=[args.at], sink=args.out)
    from .snapshot.format import read_snapshot
    body = read_snapshot(args.out)
    out.write(f"snapshot written to {args.out}: {args.program} program, "
              f"checkpoint at t={body['checkpoint']['at']:g}s, "
              f"{len(body['state'])} state section(s), "
              f"digest {body['digest'][:12]}\n")
    return 0


def cmd_restore(args, out) -> int:
    from .snapshot import (RestoreMismatch, SnapshotCorrupt,
                           SnapshotVersionError)
    from .snapshot.restore import restore_run
    try:
        outputs, body = restore_run(args.snapshot,
                                    continue_run=not args.verify_only)
    except FileNotFoundError:
        out.write(f"error: no snapshot at {args.snapshot}\n")
        return 2
    except (SnapshotCorrupt, SnapshotVersionError, RestoreMismatch) as exc:
        out.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    checkpoint = body["checkpoint"]
    program = body["program"]
    if outputs is None:
        out.write(f"snapshot verified: {program['kind']} program, replayed "
                  f"state matches checkpoint {checkpoint['index']} at "
                  f"t={checkpoint['at']:g}s (digest {body['digest'][:12]})\n")
        return 0
    if args.spill:
        from .observability import HistoryStore
        from .sim.scheduler import HeapScheduler
        run_id = args.run_id or f"restore-{program['kind']}"
        kernel = body["state"]["kernel"]
        with HistoryStore(args.spill) as store:
            store.begin_run(
                run_id, program.get("scenario", "paper-lab"),
                program.get("seed", program.get("plan", {}).get("seed", 0)),
                HeapScheduler.kind, replace=True,
                restored_from=body["digest"])
            store.finish_run(run_id, checkpoint["at"],
                             kernel["seqs_issued"],
                             meta={"snapshot": args.snapshot})
    if args.as_json:
        out.write(outputs["verdict"] if "verdict" in outputs
                  else outputs["status"])
        return 0
    out.write(f"restored {program['kind']} run from {args.snapshot}: "
              f"checkpoint {checkpoint['index']} at t={checkpoint['at']:g}s "
              f"verified (digest {body['digest'][:12]}), continued to "
              f"completion\n")
    for name in sorted(outputs):
        out.write(f"  output {name}: {len(outputs[name])} bytes\n")
    if args.spill:
        out.write(f"recorded resumed run in {args.spill}\n")
    return 0


def cmd_lint(args, out) -> int:
    from .analysis import (RULES, all_rules, apply_baseline, format_baseline,
                           lint_paths, load_baseline, render_findings,
                           render_json, render_sarif)
    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.rule_id}  {rule.summary}\n")
        return 0
    if args.as_json and args.sarif:
        out.write("error: --json and --sarif are mutually exclusive\n")
        return 2
    rules = None
    if args.rule_ids:
        selected = []
        unknown = []
        for token in args.rule_ids:
            if token in RULES:
                selected.append(RULES[token])
                continue
            family = [rule for rule_id, rule in sorted(RULES.items())
                      if rule_id.startswith(token)]
            if family and token.isalpha():
                selected.extend(family)
            else:
                unknown.append(token)
        if unknown:
            out.write(f"unknown rule(s): {', '.join(unknown)}; "
                      f"known: {', '.join(sorted(RULES))}\n")
            return 2
        rules = selected
    try:
        findings = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.baseline:
        try:
            text = Path(args.baseline).read_text(encoding="utf-8")
        except OSError as exc:
            out.write(f"error: cannot read baseline: {exc}\n")
            return 2
        findings = apply_baseline(findings, load_baseline(text))
    if args.write_baseline:
        from .util.atomicio import atomic_write_text
        atomic_write_text(args.write_baseline, format_baseline(findings))
        out.write(f"wrote {len(findings)} finding(s) to "
                  f"{args.write_baseline}\n")
        return 0
    if args.as_json:
        out.write(render_json(findings))
    elif args.sarif:
        out.write(render_sarif(findings))
    else:
        out.write(render_findings(findings) + "\n")
    return 1 if findings else 0


_COMMANDS = {
    "inventory": cmd_inventory,
    "experiment": cmd_experiment,
    "value": cmd_value,
    "farm": cmd_farm,
    "topology": cmd_topology,
    "traffic": cmd_traffic,
    "watch": cmd_watch,
    "admin": cmd_admin,
    "trace": cmd_trace,
    "status": cmd_status,
    "health": cmd_health,
    "load": cmd_load,
    "profile": cmd_profile,
    "history": cmd_history,
    "chaos": cmd_chaos,
    "snapshot": cmd_snapshot,
    "restore": cmd_restore,
    "lint": cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
