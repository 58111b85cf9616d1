"""E-LOAD — graceful saturation under open-loop multi-tenant load.

Sweeps offered load across multiples of the default gold/silver/bronze
tenant mix against the admission-controlled paper lab (fresh lab per
point) and asserts the shape that distinguishes *graceful* saturation
from congestion collapse:

* **goodput plateau** — past the knee, goodput stays within 80% of the
  peak point instead of collapsing as queues grow;
* **bounded latency** — admitted work's p99 never exceeds the tenants'
  deadline, because bounded queues bound waiting;
* **typed shedding** — the excess is absorbed by typed rejections
  (queue-full / expired / expired-in-queue), with zero untyped failures;
* **determinism** — the whole curve is byte-identical when re-swept with
  the same seed.

Full sweep is 5 points (0.4x–2.4x); ``REPRO_BENCH_SMOKE=1`` runs the
CI-sized 3-point sweep (same assertions). The curve is persisted as a
canonical-JSON artifact next to the table for plotting/CI upload.
"""

import os

from repro.load import SWEEP_FULL, SWEEP_SMOKE, saturation_curve
from repro.util.table import render_table
from repro.util.canonical import canonical_document

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SWEEP = SWEEP_SMOKE if SMOKE else SWEEP_FULL
SEED = 2009
DURATION = 8.0
#: Tenant deadline in the default mix — the latency bound for admitted work.
DEADLINE = 2.0


def _sweep():
    return saturation_curve(seed=SEED, multipliers=SWEEP, duration=DURATION)


def test_load_graceful_saturation(report):
    curve = _sweep()
    points = curve["points"]

    rows = []
    for point in points:
        latency = point["latency"]
        rows.append([
            f"{point['scale']:g}x", point["offered"], point["completed"],
            point["goodput"], point["rejected"], point["failed"],
            f"{point['goodput_rate']:.3f}",
            f"{latency['p50']:.3f}" if latency["p50"] is not None else "-",
            f"{latency['p99']:.3f}" if latency["p99"] is not None else "-"])
    report(render_table(
        ["scale", "offered", "completed", "goodput", "rejected", "failed",
         "goodput%", "p50", "p99"], rows,
        title=f"E-LOAD — saturation sweep, seed {SEED}, "
              f"{DURATION:g}s per point"),
        e_load_curve=curve)

    # Determinism: the same seed re-sweeps to the identical curve.
    assert canonical_document(_sweep()) == canonical_document(curve)

    # The sweep actually crossed the knee: the top point sheds load.
    top = points[-1]
    assert top["rejected"] > 0, "top point never saturated the lab"

    # Goodput plateaus instead of collapsing: every past-knee point keeps
    # at least 80% of the best point's goodput.
    peak = max(point["goodput"] for point in points)
    shedding = [point for point in points if point["rejected"]]
    for point in shedding:
        assert point["goodput"] >= 0.8 * peak, (
            f"goodput collapsed at {point['scale']:g}x: "
            f"{point['goodput']} < 0.8 * {peak}")

    # Bounded queues bound waiting: admitted work stays under the deadline.
    for point in points:
        p99 = point["latency"]["p99"]
        assert p99 is not None and p99 <= DEADLINE, (
            f"p99 {p99} exceeds the {DEADLINE:g}s deadline "
            f"at {point['scale']:g}x")

    # Overload is shed as typed rejections, never as failures.
    assert all(point["failed"] == 0 for point in points)
