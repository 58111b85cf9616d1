"""Local reading store — a fixed-capacity ring of typed columns.

§III.B argues a sensor service "should be capable of storing data to the
local store" because sensors produce faster than consumers poll. Each
elementary sensor provider keeps its samples here and answers a fresh
read from it without touching the probe.

The store holds numbers in arrays, not objects. Values and timestamps are
``array('d')`` columns that grow up to ``capacity`` and then wrap as a
ring; each row's ``(unit, sensor_id, quality)`` is a small index into a
per-buffer interned table. A buffered reading costs about 20 bytes and
no object the cyclic collector walks, where a stored :class:`Reading`
cost about 168. The newest reading stays the object that was appended,
so :meth:`ReadingBuffer.last` — every read path — allocates nothing, and
:meth:`ReadingBuffer.window` builds readings only for the rows it returns.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from .probe import Reading

__all__ = ["ReadingBuffer"]


class ReadingBuffer:
    """Fixed-capacity FIFO of :class:`Reading`, kept as columns."""

    __slots__ = ("capacity", "_values", "_stamps", "_key_of", "_keys",
                 "_key_ids", "_head", "_last")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values = array("d")
        self._stamps = array("d")
        # Row -> index into _keys. The table never holds more keys than
        # the buffer has rows (see _intern), so up to 256 rows a byte will do.
        self._key_of = array("B" if capacity <= 256 else "I")
        self._keys: list[tuple[str, str, str]] = []
        self._key_ids: dict[tuple[str, str, str], int] = {}
        self._head = 0  # row of the oldest reading; 0 until the ring wraps
        self._last: Optional[Reading] = None

    def append(self, reading: Reading) -> None:
        size = len(self._values)
        full = size == self.capacity
        row = self._head if full else size
        key = (reading.unit, reading.sensor_id, reading.quality)
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._intern(key, row if full else -1)
        if full:
            self._values[row] = reading.value
            self._stamps[row] = reading.timestamp
            self._key_of[row] = key_id
            self._head = row + 1 if row + 1 < size else 0
        else:
            self._values.append(reading.value)
            self._stamps.append(reading.timestamp)
            self._key_of.append(key_id)
        self._last = reading

    def _intern(self, key: tuple[str, str, str], evicted: int) -> int:
        """The index of a key not yet in the table. A table already
        holding ``capacity`` keys is first rebuilt from the rows that stay
        live (all but ``evicted``, the row the new reading overwrites), so
        it never outgrows the rows that can refer to it."""
        if len(self._keys) == self.capacity:
            keys, key_of = self._keys, self._key_of
            self._keys, self._key_ids = [], {}
            for row, old in enumerate(key_of):
                if row != evicted:
                    kept = self._key_ids.get(keys[old])
                    key_of[row] = self._add(keys[old]) if kept is None else kept
        return self._add(key)

    def _add(self, key: tuple[str, str, str]) -> int:
        key_id = self._key_ids[key] = len(self._keys)
        self._keys.append(key)
        return key_id

    def __len__(self) -> int:
        return len(self._values)

    def last(self) -> Optional[Reading]:
        return self._last

    def window(self, n: int) -> list[Reading]:
        """The most recent ``n`` readings, oldest first."""
        size = len(self._values)
        if n <= 0 or not size:
            return []
        n = min(n, size)
        first = self._head + size - n
        readings = [self._reading((first + i) % size) for i in range(n - 1)]
        readings.append(self._last)
        return readings

    def _reading(self, row: int) -> Reading:
        unit, sensor_id, quality = self._keys[self._key_of[row]]
        return Reading(value=self._values[row], unit=unit,
                       timestamp=self._stamps[row], sensor_id=sensor_id,
                       quality=quality)

    def values(self) -> np.ndarray:
        return np.roll(self._values, -self._head)  # a copy, oldest first
