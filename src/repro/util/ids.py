"""Deterministic service/lease/event identifiers.

Jini identifies services by 128-bit ``ServiceID``. For reproducibility we
derive ids from a per-network counter plus a seeded generator, formatted
like the uuids in the paper's Fig 2 (e.g.
``267c67a0-dd67-4b95-beb0-e6763e117b03``)."""

from __future__ import annotations

import numpy as np

__all__ = ["IdSource"]


class IdSource:
    """Produces unique, reproducible identifier strings."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        # A plain int rather than itertools.count: the snapshot capture
        # reads the position without consuming a value.
        self._next = 1

    def _take(self) -> int:
        seq = self._next
        self._next += 1
        return seq

    @property
    def issued(self) -> int:
        """How many identifiers have been handed out so far."""
        return self._next - 1

    def uuid(self) -> str:
        """A uuid-shaped string: random hex plus an embedded sequence number."""
        seq = self._take()
        words = self._rng.integers(0, 2**32, size=3, dtype=np.uint64)
        return (f"{int(words[0]):08x}-{int(words[1]) & 0xFFFF:04x}-"
                f"4{(int(words[1]) >> 16) & 0xFFF:03x}-"
                f"{0x8000 | (int(words[2]) & 0x3FFF):04x}-{seq:012x}")

    def sequence(self) -> int:
        """A plain increasing integer (lease ids, event ids)."""
        return self._take()
