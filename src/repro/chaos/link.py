"""ChaosLink — per-message drop/duplicate/delay on one link.

Installed as a :meth:`~repro.net.network.Network.add_link_filter` hook for
the duration of a ``link_chaos``/``slowdown`` fault window. Decisions are
**hash-based, not stream-based**: each message's fate is a pure function
of a salt (campaign seed + event index) and the message's stable identity
(src, dst, port, kind, send time, same-key occurrence index). Drawing
from a sequential RNG here would make one link's chaos depend on how many
messages happened to cross *another* link first — hash draws keep every
decision local, so chaos composes and survives tie-break shuffling
(messages differing in any attribute get independent verdicts regardless
of processing order).
"""

from __future__ import annotations

import zlib
from collections import defaultdict

from ..net.network import LinkDecision

__all__ = ["ChaosLink"]


class ChaosLink:
    """Callable link filter matching one host pair, or one host.

    Parameters
    ----------
    a, b:
        The endpoints. Messages between them (either direction) are
        subject to chaos. ``b=None`` matches every
        message ``a`` sends or receives (used by ``slowdown``).
    drop_rate, dup_rate:
        Per-message probabilities (hash-derived).
    delay:
        Extra latency added to every matched message.
    jitter:
        Additional hash-derived uniform extra delay in ``[0, jitter)``.
    salt:
        Decision-stream name — distinct salts give independent verdicts
        for the same traffic (two overlapping chaos windows never share
        coin flips).
    """

    def __init__(self, a: str, b=None, drop_rate: float = 0.0,
                 dup_rate: float = 0.0, delay: float = 0.0,
                 jitter: float = 0.0, salt: str = "chaos-link"):
        self.a = a
        self.b = b
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.delay = delay
        self.jitter = jitter
        self.salt = salt
        #: Disambiguates messages identical in every hashed attribute
        #: (same src/dst/port/kind at the same timestamp).
        self._occurrences: dict = defaultdict(int)
        #: Counters for verdict reporting.
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def _matches(self, msg) -> bool:
        if self.b is None:
            return self.a in (msg.src, msg.dst)
        return {msg.src, msg.dst} == {self.a, self.b}

    def _unit(self, msg, occurrence: int, channel: str) -> float:
        """A uniform [0,1) draw — a pure function of message identity.

        The CRC is post-mixed (murmur3 finalizer): CRC alone is linear, so
        two salts over same-length keys would yield XOR-*constant* streams
        — their high bits, which the rate thresholds look at, would agree
        or disagree in lockstep instead of independently.
        """
        key = (f"{self.salt}|{channel}|{msg.src}|{msg.dst}|{msg.port}|"
               f"{msg.kind}|{msg.sent_at!r}|{occurrence}")
        h = zlib.crc32(key.encode("utf-8"))
        h ^= h >> 16
        h = (h * 0x85EBCA6B) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 0xC2B2AE35) & 0xFFFFFFFF
        h ^= h >> 16
        return h / 2**32

    def __call__(self, msg):
        if not self._matches(msg):
            return None
        occ_key = (msg.src, msg.dst, msg.port, msg.kind, msg.sent_at)
        occurrence = self._occurrences[occ_key]
        self._occurrences[occ_key] = occurrence + 1
        if self.drop_rate and self._unit(msg, occurrence, "drop") < self.drop_rate:
            self.dropped += 1
            return LinkDecision(drop=True)
        extra = self.delay
        if self.jitter:
            extra += self._unit(msg, occurrence, "jitter") * self.jitter
        copies = ()
        if self.dup_rate and self._unit(msg, occurrence, "dup") < self.dup_rate:
            self.duplicated += 1
            # The duplicate trails the original by a hash-derived stagger,
            # reusing the original's latency draw (no extra RNG stream).
            copies = (0.001 + self._unit(msg, occurrence, "stagger") * 0.05,)
        if extra or copies:
            if extra:
                self.delayed += 1
            return LinkDecision(extra_delay=extra, copies=copies)
        return None
