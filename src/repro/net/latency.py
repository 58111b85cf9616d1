"""Link latency models.

The default models a switched lab LAN (the paper's SORCER Lab deployment):
sub-millisecond base latency, 100 Mbit/s serialization delay, small jitter.
All randomness comes from a caller-supplied :class:`numpy.random.Generator`
so runs are reproducible.
"""

from __future__ import annotations


import numpy as np

from ..util.rng import child_stream

__all__ = ["LatencyModel", "LanLatency", "FixedLatency"]


class LatencyModel:
    """Computes the one-way delay for a message."""

    def delay(self, src: str, dst: str, size_bytes: int) -> float:  # pragma: no cover
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant delay regardless of endpoints and size (useful in tests)."""

    def __init__(self, seconds: float):
        self.seconds = float(seconds)

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        return self.seconds


class LanLatency(LatencyModel):
    """Base propagation + serialization + lognormal-ish jitter.

    ``delay = BASE + size/BANDWIDTH_BPS + jitter`` where jitter is drawn from
    an exponential distribution with mean ``JITTER_MEAN`` (heavy-ish tail,
    like switch queueing).

    Each directed link draws its jitter from its own stream, derived from
    ``rng``'s seed (:func:`~repro.util.rng.child_stream`). One shared stream
    would hand out draws in send order, and two processes sending at the
    same instant run in kernel tie-break order: which of them got which
    delay would depend on it (DESIGN §8.3).
    """

    BASE = 0.0005
    BANDWIDTH_BPS = 100e6
    JITTER_MEAN = 0.0002

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        #: (src, dst) -> that link's jitter stream, created on first use.
        self._links: dict = {}

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        serialization = size_bytes * 8.0 / self.BANDWIDTH_BPS
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = child_stream(
                self.rng, "latency", src, dst)
        return (self.BASE + serialization
                + float(link.exponential(self.JITTER_MEAN)))
