"""Fleet sampling equivalence: ``sample_many`` must be *bitwise* identical
to per-probe ``sample`` loops, because sensor readings feed golden
snapshots where a 1-ulp drift is a visible diff. It is that loop today;
these tests are what a batched path would have to keep passing.
"""

import math

import pytest

from repro.scenarios import grid_locations
from repro.sensors import FieldEvent, PhysicalEnvironment

TIMES = (0.0, 13.7, 120.0, 3599.5, 86399.5)


def _scalar_reference(world, quantity, locations, t):
    return [world.sample(quantity, loc, t) for loc in locations]


@pytest.mark.parametrize("quantity",
                         sorted(PhysicalEnvironment.DEFAULT_FIELDS))
def test_vectorized_bitwise_equals_scalar(quantity):
    world = PhysicalEnvironment(seed=7)
    locations = grid_locations(500)
    for t in TIMES:
        vector = world.sample_many(quantity, locations, t)
        scalar = _scalar_reference(world, quantity, locations, t)
        # == would accept -0.0 vs 0.0 and is False for NaN; compare the
        # actual bit patterns.
        assert [v.hex() for v in vector] == [s.hex() for s in scalar]


def test_vectorized_with_active_events_bitwise():
    """Active events — including ones contributing an exact 0.0, which
    must not flip any -0.0 signs."""
    world = PhysicalEnvironment(seed=11)
    world.add_event(FieldEvent("temperature", center=(40.0, 40.0),
                               radius=35.0, delta=9.5, start=10.0, end=50.0))
    world.add_event(FieldEvent("temperature", center=(0.0, 0.0),
                               radius=5.0, delta=-2.0, start=0.0, end=1e9))
    locations = grid_locations(300)
    for t in (5.0, 12.0, 49.9, 60.0):
        vector = world.sample_many("temperature", locations, t)
        scalar = _scalar_reference(world, "temperature", locations, t)
        assert [v.hex() for v in vector] == [s.hex() for s in scalar]


def test_sample_many_unknown_quantity_raises():
    world = PhysicalEnvironment()
    with pytest.raises(KeyError):
        world.sample_many("plasma", [(0.0, 0.0)], 0.0)


def test_mean_over_uses_batch_path():
    world = PhysicalEnvironment(seed=3)
    locations = grid_locations(64)
    manual = sum(world.sample("temperature", loc, 42.0)
                 for loc in locations) / len(locations)
    assert world.mean_over("temperature", locations, 42.0) == \
        pytest.approx(manual)


def test_knot_cache_reuse_is_exact_across_ticks():
    """Inside one correlation window the cached knots must reproduce the
    uncached values exactly, tick after tick."""
    cached = PhysicalEnvironment(seed=5)
    locations = grid_locations(100)
    for tick in range(12):
        t = float(tick)
        fresh = PhysicalEnvironment(seed=5)
        a = cached.sample_many("temperature", locations, t)
        b = fresh.sample_many("temperature", locations, t)
        assert [x.hex() for x in a] == [y.hex() for y in b]


def test_knot_cache_prunes_old_generations():
    world = PhysicalEnvironment(seed=5)
    tau = world.fields["temperature"].noise_tau
    for window in range(6):
        world.sample("temperature", (0.0, 0.0), window * tau + 1.0)
    indices = sorted(world._knots["temperature"])
    # Only the sliding window [k-1, k+1] of knot generations survives.
    assert len(indices) <= 3
    assert indices[-1] >= 6


def test_probe_location_matches_grid_prefix():
    from repro.scenarios import probe_location
    for n in (1, 2, 3, 10, 65, 1000):
        locations = grid_locations(n)
        assert probe_location(n - 1) == locations[n - 1]


def test_sin_term_matches_math_module():
    """The diurnal term is math.sin; spot-check the composed value against
    a hand-built expression."""
    world = PhysicalEnvironment(seed=0)
    spec = world.fields["light"]
    t = 4321.0
    expected = spec.base + spec.amplitude * math.sin(
        2.0 * math.pi * (t + spec.phase) / spec.period)
    no_noise = PhysicalEnvironment(seed=0)
    no_noise.define_field("light", type(spec)(
        base=spec.base, unit=spec.unit, amplitude=spec.amplitude,
        period=spec.period, phase=spec.phase))
    got = no_noise.sample_many("light", [(0.0, 0.0)], t)[0]
    assert got.hex() == float(expected).hex()
