"""The ``profile`` and ``history`` CLI verbs: the flight recorder over a
paper-lab run, and queries over a spilled sqlite telemetry history."""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Optional

from ..util.canonical import canonical_document
from ..util.table import render_table
from .profile import FlightRecorder, profile_run
from .registry import metrics_registry
from .store import HistoryStore, HistoryStoreError

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
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
    profile.set_defaults(func=cmd_profile)
    history.set_defaults(func=cmd_history)


#: Sim seconds between history spills while profiling; must stay well
#: inside the health store's retention horizon (120 windows at 1s) so
#: periodic and one-shot spills produce identical databases.
_SPILL_PERIOD = 60.0


def cmd_profile(args, out) -> int:
    run_id = args.run_id or f"{args.scenario}-seed{args.seed}"
    try:
        with (HistoryStore(args.spill) if args.spill
              else nullcontext()) as store:
            report = _profile_lab(args, run_id, store)
    except HistoryStoreError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.as_json:
        out.write(canonical_document(report))
        return 0
    _render_profile(out, args, report, run_id if args.spill else None)
    return 0


def _profile_lab(args, run_id: str, store: Optional[HistoryStore]) -> dict:
    """Record a paper-lab run, spilling to ``store`` as it goes when one
    is given; returns the flight recorder's report."""
    # Scenarios sit above this package; the verb is the one place that
    # reaches up, and only when it runs.
    from ..scenarios import build_paper_lab
    until = args.until
    if until is None:
        until = 21600.0 if args.scenario == "soak" else 30.0
    lab = build_paper_lab(seed=args.seed)
    lab.settle(6.0)
    recorder = FlightRecorder()
    if store is not None:
        store.begin_run(run_id, args.scenario, args.seed,
                        lab.env.scheduler_stats()["kind"], replace=True)
    with profile_run(lab.env, recorder):
        if args.scenario == "six-steps":
            lab.run_six_steps()
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
    return report


def _render_profile(out, args, report: dict, spilled_run: Optional[str]) -> None:
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
    if not os.path.exists(args.db):
        out.write(f"error: no history database at {args.db}\n")
        return 2
    try:
        with HistoryStore(args.db) as store:
            return _query_history(args, out, store)
    except HistoryStoreError as exc:
        out.write(f"error: {exc}\n")
        return 2


def _query_history(args, out, store: HistoryStore) -> int:
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
