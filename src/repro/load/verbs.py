"""The ``load`` CLI verb: open-loop multi-tenant load on the protected lab."""

from __future__ import annotations

from ..util.canonical import canonical_document
from ..util.table import render_table
from .curve import SWEEP_FULL, SWEEP_SMOKE, saturation_curve
from .scenario import build_load_lab

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
    load = sub.add_parser(
        "load",
        help="open-loop multi-tenant load against the protected lab "
             "(admission control, weighted-fair dispatch)")
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
    load.set_defaults(func=cmd_load)


def _fmt_latency(latency: dict) -> tuple:
    return tuple("-" if latency[q] is None else f"{latency[q]:.3f}"
                 for q in ("p50", "p95", "p99"))


def cmd_load(args, out) -> int:
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
