"""E-HEALTH — management-plane detection latency and rollup overhead.

Two claims about the health plane bolted onto the paper's Fig 2 lab:

* **detection latency**: a partitioned sensor node is marked DOWN within
  one SLO evaluation window of its registration lease lapsing, the alert
  edge fires on the same beat, and the walk back to UP after the heal has
  no flapping — the timeline table shows every hop;
* **rollup overhead**: deriving per-entity health, rolling the metric
  windows and judging SLOs every simulated second costs <= 5% wall clock
  on top of the identical lab serving a 4 Hz status browser with the
  plane disabled (the E-OBS budget and methodology — overhead against a
  working network — applied to the whole management plane).

``REPRO_BENCH_SMOKE=1`` shrinks the overhead comparison to a CI-sized
smoke run (fewer interleaved repeats; same assertions except the timing
budget, which a shared runner cannot honour reliably).
"""

import gc
import os
import time
# repro: allow-file[DET001] - benchmarks time real work on the wall clock

from repro.util.table import render_table
from repro.observability import DOWN, Slo, UP
from repro.scenarios import build_paper_lab

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def run_partition_timeline(seed=2009):
    lab = build_paper_lab(seed=seed)
    lab.health.engine.add(Slo(
        "neem-node-health", "health.status{entity=node:neem-host}",
        1.0, kind="value", window=1, for_windows=1))
    lab.settle(6.0)
    others = [name for name in lab.hosts if name != "neem-host"]
    partitioned_at = lab.env.now
    lab.net.partition(["neem-host"], others)
    lab.env.run(until=60.0)
    healed_at = lab.env.now
    lab.net.heal_partition(["neem-host"], others)
    lab.env.run(until=95.0)
    moments = {(tr["entity"], tr["to"]): tr["t"]
               for tr in lab.health.model.transitions}
    alerts = [a for a in lab.health.engine.alerts
              if a.slo == "neem-node-health"]
    return lab, moments, alerts, partitioned_at, healed_at


def test_health_detection_latency(report):
    lab, moments, alerts, partitioned_at, healed_at = run_partition_timeline()
    degraded_t = moments[("node:neem-host", "DEGRADED")]
    down_t = moments[("node:neem-host", DOWN)]
    up_t = max(t for (entity, to), t in moments.items()
               if entity == "node:neem-host" and to == UP)
    fired_t = alerts[0].t
    resolved_t = alerts[1].t
    report(render_table(
        ["event", "t (sim s)"],
        [["partition", partitioned_at],
         ["node DEGRADED (lease at risk)", degraded_t],
         ["node DOWN (lease reaped)", down_t],
         ["SLO alert fired", fired_t],
         ["partition healed", healed_at],
         ["node UP again", up_t],
         ["SLO alert resolved", resolved_t]],
        title="E-HEALTH — partition detection timeline (seed 2009)"))
    # Degradation precedes the lease lapse; the alert fires within one
    # 1 s evaluation window of DOWN; recovery follows the heal.
    assert partitioned_at < degraded_t < down_t
    assert down_t <= fired_t <= down_t + 1.0
    assert healed_at < up_t < resolved_t
    # No flapping: the full walk is exactly one pass per state.
    walk = [(tr["from"], tr["to"]) for tr in lab.health.model.transitions
            if tr["entity"] == "node:neem-host"]
    assert walk == [("UNKNOWN", UP), (UP, "DEGRADED"), ("DEGRADED", DOWN),
                    (DOWN, UP)]


def _timed_lab_run(health_enabled, seed=11, interval=0.25, rounds=200):
    """Wall-clock seconds for a settled lab serving a 4 Hz status browser
    (every service polled each round — the E-OBS convention of measuring
    overhead against a *working* network, not an idle one) with the
    management plane on or off. GC is paused so its allocation-driven
    pauses don't land on either mode arbitrarily."""
    lab = build_paper_lab(seed=seed)
    lab.health.enabled = health_enabled
    lab.settle(6.0)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        lab.env.run(until=lab.env.process(lab.browser.watch(
            list(lab.sensors), interval=interval, rounds=rounds)))
        return time.perf_counter() - started, lab.health.store.collections
    finally:
        if gc_was_enabled:
            gc.enable()


def test_health_rollup_overhead(report):
    """E-HEALTH overhead arm: full management plane <= 5% wall clock."""
    repeats = 4 if SMOKE else 24

    def fastest_half_mean(samples):
        best = sorted(samples)[:max(1, len(samples) // 2)]
        return sum(best) / len(best)

    on, off, collections = [], [], 0
    for pair in range(repeats):
        modes = (True, False) if pair % 2 == 0 else (False, True)
        for health_on in modes:
            seconds, collected = _timed_lab_run(health_on)
            if health_on:
                on.append(seconds)
                collections = collected
            else:
                off.append(seconds)
                assert collected == 0  # disabled plane does nothing
    enabled, disabled = fastest_half_mean(on), fastest_half_mean(off)
    overhead = enabled / disabled - 1.0
    report(render_table(
        ["metric", "value"],
        [["rollup collections per run", collections],
         ["wall clock, health on (s)", enabled],
         ["wall clock, health off (s)", disabled],
         ["overhead", overhead],
         ["smoke mode", SMOKE]],
        title="E-HEALTH — wall-clock cost of per-second health rollups"))
    assert collections >= 50  # the plane actually ran every beat
    if not SMOKE:
        assert overhead <= 0.05, \
            f"health rollups cost {overhead:.1%} wall clock (budget: 5%)"
