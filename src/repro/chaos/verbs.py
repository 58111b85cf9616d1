"""The ``chaos`` CLI verb: run, shrink and replay seeded fault campaigns."""

from __future__ import annotations

from ..util.atomicio import atomic_write_text
from ..util.canonical import canonical_document
from .campaign import SCENARIOS, CampaignConfig, CampaignRunner
from .plan import ChaosPlan
from .shrink import shrink_failing_seed

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
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
                         choices=sorted(SCENARIOS),
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
    chaos_replay.add_argument("--plan", metavar="PATH", required=True,
                              help="plan JSON emitted by run/shrink")
    chaos.set_defaults(func=cmd_chaos)


def _chaos_runner(args):
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
                                              max_runs=args.max_runs)
        if result is None:
            out.write(f"seed {args.chaos_seed} passes every invariant; "
                      "nothing to shrink\n")
            return 0
        plan_json = result.plan.to_json()
        if args.out:
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
