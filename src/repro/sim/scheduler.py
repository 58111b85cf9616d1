"""Kernel scheduler — the pending-event set behind :class:`Environment`.

The kernel's ordering contract is a strict total order over scheduled
occurrences keyed by ``(time, priority, tie, seq)``:

* ``time`` — simulated seconds (floats, never negative deltas);
* ``priority`` — URGENT < NORMAL < LOW (any int works);
* ``tie`` — 0.0 normally, a seeded uniform draw under the tie-break
  shuffle harness;
* ``seq`` — the monotonically increasing scheduling counter, unique per
  occurrence, which makes the order total.

:class:`HeapScheduler` honours it with a binary heap of ``(time,
priority, tie, seq, event)`` tuples: O(log n) per operation through C
``heapq``, and :meth:`~HeapScheduler.cancel` as a lazy tombstone —
what :meth:`Timeout.cancel <repro.sim.core.Timeout.cancel>` calls, so a
withdrawn timer (an answered RPC's watchdog) is discarded when it
surfaces instead of being dispatched. Once tombstones pass a floor and
outnumber the live entries, the heap is rebuilt without them, as asyncio's
event loop does with cancelled timer handles; the key is a strict total
order, so the rebuilt heap pops exactly what the old one would have. It is
the only implementation; why is recorded in EXPERIMENTS.md E-KERNEL.
"""

from __future__ import annotations

import heapq
from typing import Any

__all__ = ["HeapScheduler"]

_INF = float("inf")


class HeapScheduler:
    """Binary-heap scheduler over ``(time, priority, tie, seq, event)``."""

    __slots__ = ("_heap", "_dead", "pushes", "pops", "cancels")

    kind = "heap"
    #: Fewest tombstones that make a rebuild worth its O(n).
    COMPACT_FLOOR = 100

    def __init__(self):
        self._heap: list[tuple] = []
        self._dead: set[int] = set()
        #: Lifetime operation counters — the flight recorder reads these;
        #: they never feed back into scheduling.
        self.pushes = 0
        self.pops = 0
        self.cancels = 0

    @property
    def size(self) -> int:
        return len(self._heap) - len(self._dead)

    def __len__(self) -> int:
        return self.size

    def push(self, time: float, priority: int, tie: float, seq: int,
             event: Any) -> None:
        self.pushes += 1
        heapq.heappush(self._heap, (time, priority, tie, seq, event))

    def pop(self) -> tuple:
        """Remove and return the least ``(time, priority, tie, seq, event)``."""
        heap = self._heap
        dead = self._dead
        while heap:
            entry = heapq.heappop(heap)
            if dead and entry[3] in dead:
                dead.discard(entry[3])
                continue
            self.pops += 1
            return entry
        raise IndexError("pop from empty scheduler")

    def peek_time(self) -> float:
        """Time of the next occurrence, or ``inf`` when empty."""
        heap = self._heap
        dead = self._dead
        while heap:
            if dead and heap[0][3] in dead:
                dead.discard(heapq.heappop(heap)[3])
                continue
            return heap[0][0]
        return _INF

    def cancel(self, seq: int) -> None:
        """Tombstone the occurrence scheduled under ``seq`` (lazy removal);
        drop every tombstone at once when they outnumber the live entries."""
        self.cancels += 1
        dead = self._dead
        dead.add(seq)
        heap = self._heap
        if len(dead) > self.COMPACT_FLOOR and 2 * len(dead) > len(heap):
            heap[:] = [entry for entry in heap if entry[3] not in dead]
            heapq.heapify(heap)
            dead.clear()

    def entries(self) -> list:
        """Every live pending occurrence in pop order, *without* popping.

        Strictly non-mutating — no counters move, no tombstones are
        consumed — so the snapshot capture path can enumerate the pending
        set without perturbing the ``kernel.scheduler.*`` gauges the
        health beat publishes (DESIGN §12/§14).
        """
        dead = self._dead
        return [entry for entry in sorted(self._heap)
                if entry[3] not in dead]

    def stats(self) -> dict:
        """Deterministic internals snapshot (operation totals + pending).

        Wall-clock-free and read-only. Kept out of canonical sim-side
        outputs all the same (DESIGN §12): the totals describe the
        substrate, not the federation.
        """
        return {"kind": self.kind, "pending": self.size,
                "pushes": self.pushes, "pops": self.pops,
                "cancels": self.cancels}
