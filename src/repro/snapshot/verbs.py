"""The ``snapshot`` and ``restore`` CLI verbs."""

from __future__ import annotations

from ..observability import HistoryStore, HistoryStoreError
from ..sim.scheduler import HeapScheduler
from .format import (RestoreMismatch, SnapshotCorrupt, SnapshotVersionError,
                     read_snapshot)
from .programs import campaign_spec, run_program, status_spec
from .restore import restore_run

__all__ = ["add_verbs"]


def add_verbs(sub) -> None:
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
    snap.set_defaults(func=cmd_snapshot)
    restore.set_defaults(func=cmd_restore)


def cmd_snapshot(args, out) -> int:
    if args.program == "status":
        horizon = args.until
        spec = status_spec(seed=args.seed, until=args.until,
                           six_steps=not args.quiet_lab)
    else:
        # The campaign program is the one place this plane needs another.
        from ..chaos import CampaignConfig, CampaignRunner
        horizon = args.horizon
        config = CampaignConfig(horizon=args.horizon,
                                scenario_seed=args.seed)
        try:
            runner = CampaignRunner(scenario=args.scenario, config=config)
        except ValueError as exc:  # an unknown --scenario
            out.write(f"error: {exc}\n")
            return 2
        spec = campaign_spec(runner.plan_for(args.chaos_seed).to_dict(),
                             scenario=args.scenario)
    if not 0 <= args.at < horizon:
        out.write(f"error: --at {args.at:g} is outside the run's horizon "
                  f"[0, {horizon:g}); the checkpoint would never fire\n")
        return 2
    run_program(spec, checkpoint_at=[args.at], sink=args.out)
    body = read_snapshot(args.out)
    out.write(f"snapshot written to {args.out}: {args.program} program, "
              f"checkpoint at t={body['checkpoint']['at']:g}s, "
              f"{len(body['state'])} state section(s), "
              f"digest {body['digest'][:12]}\n")
    return 0


def cmd_restore(args, out) -> int:
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
        run_id = args.run_id or f"restore-{program['kind']}"
        kernel = body["state"]["kernel"]
        try:
            with HistoryStore(args.spill) as store:
                store.begin_run(
                    run_id, program.get("scenario", "paper-lab"),
                    program.get("seed",
                                program.get("plan", {}).get("seed", 0)),
                    HeapScheduler.kind, replace=True,
                    restored_from=body["digest"])
                store.finish_run(run_id, checkpoint["at"],
                                 kernel["seqs_issued"],
                                 meta={"snapshot": args.snapshot})
        except HistoryStoreError as exc:
            out.write(f"error: {exc}\n")
            return 2
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
