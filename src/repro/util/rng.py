"""Named RNG substreams — one scenario seed, many independent streams.

Every source of randomness in a run (chaos plans, per-tenant load
arrivals, latency jitter added by injectors, ...) must be *compositional*:
creating a new stream, or drawing more from one, cannot perturb the
sequence any other stream produces. A single shared generator breaks that
the moment a new
consumer is added; per-stream ad-hoc seeds (``default_rng(0)`` here,
``default_rng(seed + 7)`` there) collide silently.

:func:`substream` is the sanctioned scheme: a generator derived from the
scenario seed plus a *path* of names, hashed into independent entropy
(``substream(2009, "chaos", "plan")`` and ``substream(2009, "load",
"gold")`` never share state, by construction).
The determinism lint's DET005 rule flags RNG construction outside this
helper (and :func:`repro.resilience.policy.backoff_rng`, its older
name-keyed sibling).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_stream", "substream", "stream_hash"]

#: Domain-separation constant so ``substream(s)`` differs from a plain
#: ``default_rng(s)``.
_DOMAIN = 0x5EED5_0B57

_MASK = 0xFFFFFFFF


def stream_hash(*names) -> int:
    """Stable 32-bit hash of a name path (order-sensitive)."""
    digest = 0
    for name in names:
        digest = zlib.crc32(str(name).encode("utf-8"), digest)
    return digest & _MASK


def substream(seed: int, *names) -> np.random.Generator:
    """An independent generator for stream ``names`` under ``seed``.

    The entropy is ``[seed, DOMAIN, crc32(name_0), crc32(name_0/name_1),
    ...]`` — every distinct name path gets its own stream, and two calls
    with the same arguments return generators producing identical
    sequences (streams are values, not shared state).
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, _DOMAIN]
    digest = 0
    for name in names:
        digest = zlib.crc32(str(name).encode("utf-8"), digest)
        entropy.append(digest & _MASK)
    return np.random.default_rng(entropy)


def child_stream(rng: np.random.Generator, *names) -> np.random.Generator:
    """An independent generator for stream ``names`` under ``rng``'s seed.

    Derived from the seed sequence ``rng`` was built from, never drawn
    from ``rng`` itself: ``rng``'s own sequence is untouched, so adding a
    child stream perturbs no other consumer of it.
    """
    seq = rng.bit_generator.seed_seq
    return np.random.default_rng(np.random.SeedSequence(
        seq.entropy, spawn_key=(*seq.spawn_key, stream_hash(*names))))
