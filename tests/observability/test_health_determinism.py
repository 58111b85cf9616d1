"""Determinism of the management plane under partition/heal schedules.

The acceptance bar for the whole observability layer: two identical runs
(same seed, same fault schedule) must produce byte-identical canonical
status JSON and the exact same alert sequence. Hypothesis drives the
schedule; any divergence is a hidden source of nondeterminism (dict
ordering, wall-clock leakage, unseeded randomness) in the health path.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observability import Slo
from repro.observability.status import status_json
from repro.scenarios import build_paper_lab

#: Trimmed lab — two ESPs are enough to exercise every health path.
SENSORS = ("Neem-Sensor", "Jade-Sensor")


def run_schedule(seed, victim, partition_at, heal_after):
    """Build a lab, partition one sensor host per the schedule, heal it,
    and return (canonical status JSON bytes, alert edge tuples)."""
    lab = build_paper_lab(seed=seed, sensor_names=SENSORS)
    lab.health.engine.add(Slo(
        f"{victim}-node-health", f"health.status{{entity=node:{victim}}}",
        1.0, kind="value", window=1, for_windows=1))
    lab.settle(5.0)
    others = [name for name in lab.hosts if name != victim]
    lab.env.run(until=partition_at)
    lab.net.partition([victim], others)
    lab.env.run(until=partition_at + heal_after)
    lab.net.heal_partition([victim], others)
    lab.env.run(until=partition_at + heal_after + 20.0)
    document = status_json(lab.health.snapshot(), seed=seed)
    alerts = [(a.t, a.slo, a.state, a.signal) for a in lab.health.engine.alerts]
    return document, alerts


@settings(max_examples=5)
@given(seed=st.integers(min_value=0, max_value=2**16),
       victim=st.sampled_from(["neem-host", "jade-host"]),
       partition_at=st.integers(min_value=6, max_value=15),
       heal_after=st.integers(min_value=5, max_value=40))
@example(seed=2009, victim="neem-host", partition_at=8, heal_after=35)
def test_same_seed_same_schedule_is_byte_identical(seed, victim,
                                                   partition_at, heal_after):
    first_json, first_alerts = run_schedule(seed, victim,
                                            partition_at, heal_after)
    second_json, second_alerts = run_schedule(seed, victim,
                                              partition_at, heal_after)
    assert first_json == second_json
    assert first_alerts == second_alerts


def test_long_partition_alert_sequence_is_reproducible():
    """A schedule long enough for the full DOWN walk replays its alert
    edges exactly, including timestamps."""
    _, first = run_schedule(2009, "neem-host", 8, 35)
    _, second = run_schedule(2009, "neem-host", 8, 35)
    assert first == second
    names = [slo for _, slo, state, _ in first if state == "firing"]
    assert "neem-host-node-health" in names
