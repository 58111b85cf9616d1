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

This module owns the paper-lab verbs (``inventory`` … ``health``). Every
other verb lives beside its subsystem in a ``verbs`` module whose
``add_verbs(sub)`` holds the argparse block and binds the handler;
:data:`VERB_MODULES` is the one place they are listed. A verbs module is
imported only when its verb is the one being run (or for ``--help``), so
``lint`` — a static pass, no simulation — works without numpy installed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser", "VERB_MODULES"]

#: One line per verb-owning package, in ``repro --help`` order: the module
#: whose ``add_verbs(sub)`` registers them, then the verbs it registers.
VERB_MODULES = (
    ("repro.load.verbs", "load"),
    ("repro.observability.verbs", "profile", "history"),
    ("repro.chaos.verbs", "chaos"),
    ("repro.snapshot.verbs", "snapshot", "restore"),
    ("repro.analysis.verbs", "lint"),
)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser — or, when ``only`` names a verb, one that imports
    just the :data:`VERB_MODULES` module owning it (none for a paper-lab
    verb) and lists the other modules' verbs by name alone."""
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

    for name, handler in _LAB_VERBS.items():
        sub.choices[name].set_defaults(func=handler)

    for module, *verbs in VERB_MODULES:
        if only is None or only in verbs:
            importlib.import_module(module).add_verbs(sub)
        else:
            for name in verbs:
                sub.add_parser(name)
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


def cmd_experiment(args, out) -> int:
    lab = _lab(args.seed)
    value = lab.run_six_steps()
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
    lab.run_six_steps()
    out.write(lab.browser.render_topology() + "\n")
    return 0


def cmd_traffic(args, out) -> int:
    from .util.table import render_traffic
    lab = _lab(args.seed)
    lab.run_six_steps()
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
        render_metrics,
        render_span_tree,
        tracer_of,
    )
    lab = _lab(args.seed)
    lab.run_six_steps()
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
        lab.run_six_steps()
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


_LAB_VERBS = {
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
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only ``--seed N`` and ``-h`` can precede the verb, so the first
    # token that names one is the verb being run.
    known = set(_LAB_VERBS).union(*(verbs for _, *verbs in VERB_MODULES))
    only = next((token for token in argv if token in known), None)
    args = build_parser(only).parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
