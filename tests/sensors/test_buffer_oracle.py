"""The column-store ``ReadingBuffer`` against the deque it replaced.

``reference_buffer.ReadingBuffer`` is the old buffer, verbatim. Random
runs of readings, with capacities from 1 to 32 so most runs wrap the ring
and with unit, sensor id and quality changing partway, drive both; after
every append ``len``, ``last``, ``window`` (at -1, 0, 1, capacity and
capacity + 3) and ``values`` must agree. Two planted mutants of the
shipped source — a ring head one row behind, and a row read with its
predecessor's metadata — must fail the same check.
"""

import inspect

import pytest
from hypothesis import example, given, strategies as st

from repro.sensors import Reading, ReadingBuffer
from repro.sensors import buffer as buffer_module

from tests.sensors import reference_buffer

METADATA = st.tuples(st.sampled_from(["celsius", "percent"]),
                     st.sampled_from(["s1", "s2"]),
                     st.sampled_from(["good", "clamped", "suspect"]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# A run is a list of segments; each segment is some readings sharing one
# (unit, sensor_id, quality), so the metadata changes between segments.
RUNS = st.lists(st.tuples(METADATA, st.lists(FINITE, min_size=1,
                                             max_size=24)),
                min_size=1, max_size=5)


def readings_of(run) -> list:
    out = []
    for (unit, sensor_id, quality), values in run:
        for value in values:
            out.append(Reading(value=value, unit=unit,
                               timestamp=float(len(out)) * 0.5,
                               sensor_id=sensor_id, quality=quality))
    return out


def run_against_reference(readings, capacity, cls=ReadingBuffer) -> None:
    buf, ref = cls(capacity), reference_buffer.ReadingBuffer(capacity)
    assert len(buf) == 0 and buf.last() is None
    for reading in readings:
        buf.append(reading)
        ref.append(reading)
        assert len(buf) == len(ref)
        assert buf.last() is reading  # the appended object, not a copy
        for n in (-1, 0, 1, capacity, capacity + 3):
            assert buf.window(n) == ref.window(n), n
        values, expected = buf.values(), ref.values()
        assert values.dtype == expected.dtype
        assert values.tolist() == expected.tolist()


@given(RUNS, st.integers(min_value=1, max_value=32))
@example([(("celsius", "s1", "good"), [1.0, 2.0, 3.0]),
          (("percent", "s2", "clamped"), [4.0, 5.0])], 3)
@example([(("celsius", "s1", "good"), [float(i) for i in range(10)]),
          (("celsius", "s1", "suspect"), [-0.0, 1e300])], 4)
def test_column_store_agrees_with_the_deque(run, capacity):
    run_against_reference(readings_of(run), capacity)


def test_metadata_table_never_outgrows_the_rows():
    """Every reading with a sensor id of its own: the interned table is
    rebuilt from the live rows instead of growing past the capacity."""
    readings = [Reading(value=float(i), unit="celsius", timestamp=float(i),
                        sensor_id=f"s{i}") for i in range(40)]
    run_against_reference(readings, 5)
    buf = ReadingBuffer(5)
    for reading in readings:
        buf.append(reading)
        assert len(buf._keys) <= buf.capacity


def mutant(original: str, replacement: str) -> type:
    """``ReadingBuffer`` compiled from the shipped source with one edit."""
    source = inspect.getsource(buffer_module)
    assert source.count(original) == 1, original
    namespace = {"__name__": "mutant_buffer",
                 "__package__": buffer_module.__package__}
    exec(compile(source.replace(original, replacement),
                 buffer_module.__file__, "exec"), namespace)
    return namespace["ReadingBuffer"]


MUTANTS = {
    "ring-head-one-row-behind": (
        "self._head = row + 1 if row + 1 < size else 0",
        "self._head = row if row + 1 < size else 0"),
    "metadata-of-the-previous-row": (
        "self._keys[self._key_of[row]]",
        "self._keys[self._key_of[row - 1]]"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_mutants_fail_the_oracle(name):
    readings = readings_of([(("celsius", "s1", "good"), [1.0, 2.0, 3.0]),
                            (("percent", "s2", "clamped"), [4.0, 5.0])])
    run_against_reference(readings, 3)  # the shipped buffer passes ...
    with pytest.raises(AssertionError):  # ... and the mutant does not
        run_against_reference(readings, 3, mutant(*MUTANTS[name]))
