"""The deque-backed ``ReadingBuffer`` ``repro.sensors`` shipped before the
local store became typed columns, kept verbatim as the oracle the column
store is compared against (``test_buffer_oracle.py``). Not used by ``src``.

Every buffered reading is a live :class:`Reading` object here, and
``window`` copies the whole deque."""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.sensors.probe import Reading

__all__ = ["ReadingBuffer"]


class ReadingBuffer:
    """Fixed-capacity FIFO of :class:`Reading`."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._readings: deque[Reading] = deque(maxlen=capacity)

    def append(self, reading: Reading) -> None:
        self._readings.append(reading)

    def __len__(self) -> int:
        return len(self._readings)

    def last(self) -> Optional[Reading]:
        return self._readings[-1] if self._readings else None

    def window(self, n: int) -> list[Reading]:
        """The most recent ``n`` readings, oldest first."""
        if n <= 0:
            return []
        items = list(self._readings)
        return items[-n:]

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self._readings], dtype=float)
