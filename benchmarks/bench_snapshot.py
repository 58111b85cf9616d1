"""E-SNAP — snapshot round-trip cost and the cost of shrinking a plan.

Two claims from DESIGN.md §14, measured:

* **round trip is cheap and exact** — capturing the full federation at a
  checkpoint, writing the envelope, reading it back and replay-verifying
  the digest costs a small fraction of simply re-running the scenario,
  and the restored continuation's ``status --json`` is byte-identical to
  the uninterrupted run;
* **ddmin finds the culprit** — over a 50-event late-fault plan (one
  culprit partition hidden behind 49 harmless slowdowns, all past t=100
  of a 120s horizon) every probe is a full campaign re-run, and the
  minimum is the one partition. The table reports its wall time and
  run count; only the one-event minimum is gated.
"""

# repro: allow-file[DET001] - benchmarks time real work on the wall clock

import os
import time

from repro.chaos import CampaignConfig, CampaignRunner, ChaosPlan, FaultEvent
from repro.chaos.shrink import _matches_failure, shrink_plan
from repro.util.table import render_table
from repro.snapshot.format import read_snapshot
from repro.snapshot.programs import run_program, status_spec
from repro.snapshot.restore import restore_run

HORIZON = 120.0
#: All 50 events land in [100, 116): the settled prefix dominates the
#: run, so most of every probe is the same fault-free 100 s.
FAULT_WINDOW_START = 100.0
PLAN_EVENTS = 50
SHRINK_BUDGET = 60
FILLER_HOSTS = ("neem-host", "jade-host", "coral-host", "diamond-host")


def late_fault_plan() -> ChaosPlan:
    """One convergence-breaking partition plus 49 harmless 1s slowdowns.

    The culprit leads the event list, which is the adversarial ordering
    for ddmin (every complement that drops the head passes), so the
    shrink does the full ~11-run reduction rather than getting lucky.
    """
    # Ends at t=116 with only 4s of horizon left: health cannot converge.
    events = [FaultEvent("partition", "composite-host|facade-host",
                         FAULT_WINDOW_START, 16.0)]
    events += [
        FaultEvent("slowdown", FILLER_HOSTS[i % len(FILLER_HOSTS)],
                   round(FAULT_WINDOW_START + 1.0 + i * 0.3, 3), 1.0,
                   {"delay": 0.05})
        for i in range(PLAN_EVENTS - 1)]
    return ChaosPlan(seed=0, scenario="paper-lab", horizon=HORIZON,
                     events=events)


def _runner() -> CampaignRunner:
    return CampaignRunner("paper-lab",
                          config=CampaignConfig(horizon=HORIZON))


def _round_trip(tmp: str) -> dict:
    spec = status_spec(seed=2009, until=30.0)
    path = os.path.join(tmp, "e_snap.snap")

    run_program(spec)  # warm import/scenario caches off the clock

    t0 = time.perf_counter()
    run_program(spec)
    plain_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    baseline, _ = run_program(spec, checkpoint_at=[12.0], sink=path)
    run_and_capture_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    body = read_snapshot(path)
    restore_run(path, continue_run=False)  # replay-verify the digest
    verify_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    restored, _ = restore_run(path)
    restore_s = time.perf_counter() - t0

    assert restored["status"] == baseline["status"]
    assert restored["trace"] == baseline["trace"]
    return {
        "bytes": os.path.getsize(path),
        "sections": len(body["state"]),
        "plain_run_s": round(plain_s, 3),
        "run_and_capture_s": round(run_and_capture_s, 3),
        "verify_s": round(verify_s, 3),
        "restore_s": round(restore_s, 3),
    }


def _shrink() -> dict:
    plan = late_fault_plan()
    failed = {"health-convergence"}
    runner = _runner()
    verdict = runner.run_plan(plan)
    assert not verdict["ok"], "the late-fault plan must fail unshrunk"

    def fails(candidate: ChaosPlan) -> bool:
        return _matches_failure(runner.run_plan(candidate), failed)

    t0 = time.perf_counter()
    result = shrink_plan(plan, fails, max_runs=SHRINK_BUDGET)
    shrink_s = time.perf_counter() - t0
    return {
        "shrink_s": round(shrink_s, 3), "runs": result.runs,
        "plan": result.plan.to_json(),
        "minimal_events": len(result.plan.events),
    }


def test_snapshot_round_trip_and_cold_shrink(report, tmp_path):
    trip, shrink = _round_trip(str(tmp_path)), _shrink()
    report(render_table(
        ["quantity", "value"],
        [["snapshot bytes", trip["bytes"]],
         ["state sections", trip["sections"]],
         ["plain run (s)", trip["plain_run_s"]],
         ["run + capture (s)", trip["run_and_capture_s"]],
         ["verify-only restore (s)", trip["verify_s"]],
         ["restore + continue (s)", trip["restore_s"]],
         ["cold ddmin (s)", f"{shrink['shrink_s']} ({shrink['runs']} runs)"],
         ["minimal plan events",
          f"{shrink['minimal_events']} (from {PLAN_EVENTS})"]],
        title="E-SNAP — snapshot round trip + cold ddmin shrink "
              f"({PLAN_EVENTS}-event plan, {HORIZON:g}s horizon)"),
        e_snap={"round_trip": trip, "shrink": shrink})

    # Round trip is exact (asserted inside) and not absurdly expensive:
    # capturing mid-run costs less than one extra uninterrupted run.
    overhead = trip["run_and_capture_s"] - trip["plain_run_s"]
    assert overhead < trip["plain_run_s"], (
        f"capture overhead {overhead:.3f}s exceeds a full run")
    assert trip["bytes"] > 1024, "snapshot is implausibly small"

    # ddmin isolated the one culprit partition out of 50 events.
    assert shrink["minimal_events"] == 1
