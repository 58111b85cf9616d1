"""ReadingBuffer unit + property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.sensors import Reading, ReadingBuffer


def reading(value, t=0.0):
    return Reading(value=value, unit="c", timestamp=t, sensor_id="s")


def test_empty_buffer():
    buf = ReadingBuffer(4)
    assert len(buf) == 0
    assert buf.last() is None
    assert buf.window(4) == []


def test_capacity_validation():
    with pytest.raises(ValueError):
        ReadingBuffer(0)


def test_append_and_last():
    buf = ReadingBuffer(4)
    buf.append(reading(1.0))
    buf.append(reading(2.0))
    assert len(buf) == 2
    assert buf.last().value == 2.0


def test_eviction_at_capacity():
    buf = ReadingBuffer(3)
    for i in range(5):
        buf.append(reading(float(i)))
    assert len(buf) == 3
    assert [r.value for r in buf.window(3)] == [2.0, 3.0, 4.0]


def test_window_bounds():
    buf = ReadingBuffer(8)
    for i in range(5):
        buf.append(reading(float(i)))
    assert [r.value for r in buf.window(2)] == [3.0, 4.0]
    assert len(buf.window(100)) == 5
    assert buf.window(0) == []


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=64),
       st.integers(min_value=1, max_value=32))
def test_property_buffer_keeps_most_recent(values, capacity):
    buf = ReadingBuffer(capacity)
    for i, v in enumerate(values):
        buf.append(reading(v, t=float(i)))
    expected = values[-capacity:]
    assert list(buf.values()) == expected
    assert len(buf) == min(len(values), capacity)
    assert buf.last().value == values[-1]
