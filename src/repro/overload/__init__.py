"""Overload-control plane — admission, fair dispatch, shedding.

ROADMAP item 2: under open-loop load (arrivals do not slow down because
the system is busy) an unprotected federation *collapses* — queues grow
without bound, every request times out, goodput goes to zero. This
package makes saturation graceful instead:

* :class:`AdmissionController` — a bounded admission queue in front of a
  provider: reject-on-admit when the queue is full (or the request's
  deadline is already dead), drop-expired-on-dequeue so requests that
  died waiting never burn provider capacity;
* :class:`WeightedFairQueue` — virtual-time weighted-fair dispatch so a
  bursting tenant cannot starve the others; tie-breaks are by tenant
  name, making dispatch order independent of same-instant arrival
  shuffling (the ``REPRO_SHUFFLE_SEED`` harness);
* :class:`Overloaded` — the typed rejection callers see, carrying a
  retry-after hint. It crosses the provider boundary as a context
  marker (``OVERLOAD_PATH``) on an otherwise *successful* RPC, so
  circuit breakers never mistake shed load for provider failure.

See DESIGN.md §10 for the admission → queue → dispatch → shed decision
table.
"""

from .admission import AdmissionController
from .dispatch import WeightedFairQueue
from ..sorcer.rejection import (
    OVERLOAD_PATH,
    Overloaded,
    mark_overloaded,
    rejection_marker,
)

__all__ = [
    "AdmissionController",
    "OVERLOAD_PATH",
    "Overloaded",
    "WeightedFairQueue",
    "mark_overloaded",
    "rejection_marker",
]
