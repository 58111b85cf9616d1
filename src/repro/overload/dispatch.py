"""Weighted-fair dispatch — start-time fair queuing over tenants.

Classic virtual-time SFQ: every queued item carries a *finish tag*
``max(v, last_finish[tenant]) + cost/weight`` where ``v`` is the queue's
virtual time (advanced to the tag of each dispatched item). Backlogged
tenants then drain in proportion to their weights, and no backlogged
tenant starves: its next tag is bounded by ``v + 1/weight``, so at most
``sum(weights)/weight`` other items can jump ahead of it.

Determinism contract: the heap orders by ``(tag, tenant, per-tenant
sequence)``. Tags depend only on each tenant's own arrival order (which
is causal — one tenant's arrivals come from one process) and on the
dispatch history, never on how *different* tenants' same-instant
arrivals interleave. Pop order is therefore byte-identical across
``REPRO_SHUFFLE_SEED`` values; the hypothesis suite in
``tests/overload/test_dispatch.py`` pins all three properties.
"""

from __future__ import annotations

import heapq
from typing import Optional

__all__ = ["WeightedFairQueue"]


class WeightedFairQueue:
    """A priority queue that is fair across tenants, by weight."""

    DEFAULT_WEIGHT = 1.0  # of a tenant nobody configured

    def __init__(self, weights: Optional[dict] = None):
        self._weights: dict[str, float] = {}
        for tenant, weight in (weights or {}).items():
            self.set_weight(tenant, weight)
        self._heap: list = []
        self._last_finish: dict[str, float] = {}
        self._seq: dict[str, int] = {}
        self._vtime = 0.0

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"tenant {tenant!r} weight must be positive")
        self._weights[tenant] = float(weight)

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, self.DEFAULT_WEIGHT)

    def push(self, tenant: str, item) -> None:
        tag = (max(self._vtime, self._last_finish.get(tenant, 0.0))
               + 1.0 / self.weight_of(tenant))
        self._last_finish[tenant] = tag
        seq = self._seq.get(tenant, 0)
        self._seq[tenant] = seq + 1
        heapq.heappush(self._heap, (tag, tenant, seq, item))

    def checkpoint_state(self) -> dict:
        """Snapshot section fragment: virtual clock + per-tenant finish
        tags (queued items themselves belong to their waiters)."""
        return {
            "depth": len(self._heap),
            "last_finish": {tenant: tag for tenant, tag
                            in sorted(self._last_finish.items())},
            "seq": {tenant: seq for tenant, seq
                    in sorted(self._seq.items())},
            "vtime": self._vtime,
        }

    def pop(self):
        """The next item in weighted-fair order (None when empty)."""
        if not self._heap:
            return None
        tag, _tenant, _seq, item = heapq.heappop(self._heap)
        if tag > self._vtime:
            self._vtime = tag
        return item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
