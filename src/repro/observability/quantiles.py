"""Quantile estimation over fixed-bucket histogram data.

One shared implementation for every consumer of histogram buckets — the
:class:`~repro.observability.registry.Histogram` instrument, the metrics
table renderer and the health model's per-window rollups — so "what is
p95?" has exactly one answer everywhere.

The estimator is the Prometheus ``histogram_quantile`` one: find the
bucket holding the target rank, then interpolate linearly inside it
(samples are assumed uniform within a bucket). Two boundary rules keep the
estimate finite and conservative:

* a rank landing in the implicit +inf bucket reports the highest finite
  bound (the data is *at least* that large; anything more is a guess);
* the first bucket interpolates from 0, so sub-bucket resolution does not
  invent negative values for latency-like metrics.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["quantile_from_buckets", "max_from_buckets"]


def quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                          q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a cumulative-bucket histogram.

    ``bounds`` are the finite upper bucket bounds; ``counts`` has one extra
    trailing slot for the implicit +inf bucket. Returns ``None`` for an
    empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if not total:
        return None
    target = q * total
    seen = 0
    for index, n in enumerate(counts):
        previous = seen
        seen += n
        if seen < target:
            continue
        if index >= len(bounds):
            # +inf bucket: stay finite and conservative (the sample is
            # at least the largest bound).
            return bounds[-1] if bounds else float("inf")
        upper = bounds[index]
        lower = bounds[index - 1] if index > 0 else 0.0
        if n == 0:  # target == seen on an empty bucket boundary
            return upper
        fraction = (target - previous) / n
        return lower + (upper - lower) * fraction
    return float("inf")  # pragma: no cover - seen >= target always triggers


def max_from_buckets(bounds: Sequence[float],
                     counts: Sequence[int]) -> Optional[float]:
    """Upper bound of the highest occupied bucket (a conservative max).

    Samples in the +inf bucket report ``inf`` — the histogram genuinely
    does not know how large they were. ``None`` when empty.
    """
    for index in range(len(counts) - 1, -1, -1):
        if counts[index]:
            return bounds[index] if index < len(bounds) else float("inf")
    return None
