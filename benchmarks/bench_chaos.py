"""E-CHAOS — invariant pass-rate and MTTR across seeded fault campaigns.

The chaos engine's headline numbers over the paper-lab deployment:

* **pass-rate**: every built-in end-to-end invariant (workload
  accounting, trace integrity, 2PC atomicity, space exactly-once, health
  convergence, breaker liberation, sim sanity) must hold for *all* seeded
  campaigns — the unmodified system survives every generated fault
  schedule;
* **MTTR**: mean time from an entity leaving UP to its return, averaged
  over every incident the health model logged, with the per-kind fault
  application counts that produced them.

50 seeds by default; ``REPRO_BENCH_SMOKE=1`` runs the CI-sized 10-seed
campaign (same assertions — the invariants are not load-dependent).
"""

import os

from repro.chaos import CampaignRunner
from repro.util.table import render_table

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SEEDS = range(1, 11) if SMOKE else range(1, 51)


def test_chaos_campaign_pass_rate(report):
    summary = CampaignRunner("paper-lab").run(list(SEEDS))
    runs = summary["runs"]
    fault_counts: dict = {}
    for run in runs:
        for kind, count in run["faults"]["applied"].items():
            fault_counts[kind] = fault_counts.get(kind, 0) + count
    incidents = sum(run["recovery"]["incidents"] for run in runs)
    recovered = sum(run["recovery"]["recovered"] for run in runs)
    report(render_table(
        ["quantity", "value"],
        [["seeds", len(runs)],
         ["pass rate", f"{summary['pass_rate']:.2%}"],
         ["mean MTTR (sim s)", summary["mean_mttr"]],
         ["health incidents", incidents],
         ["incidents recovered", recovered],
         ["faults injected",
          ", ".join(f"{kind}={count}"
                    for kind, count in sorted(fault_counts.items()))],
         ["messages chaos-dropped",
          sum(run["faults"]["links"]["dropped"] for run in runs)],
         ["messages chaos-duplicated",
          sum(run["faults"]["links"]["duplicated"] for run in runs)]],
        title=f"E-CHAOS — {len(runs)} seeded campaigns (paper-lab)"))
    # The unmodified system survives every schedule the seeds generate.
    assert summary["failed"] == 0, summary["invariant_failures"]
    assert summary["pass_rate"] == 1.0
    # Chaos actually happened: faults applied, incidents opened and closed.
    assert sum(fault_counts.values()) >= len(runs)
    assert incidents > 0 and recovered == incidents
    assert summary["mean_mttr"] is not None and summary["mean_mttr"] > 0
