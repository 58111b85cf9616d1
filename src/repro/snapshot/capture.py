"""Declarative state capture for a running federation.

:func:`capture_state` walks a live :class:`repro.sim.Environment` and
produces one JSON-able document describing everything the federation
holds at this instant: the kernel section (sim clock, seqs issued,
tie-break RNG position, every pending event in pop order) plus one
section per state provider registered on the environment
(:meth:`repro.sim.Environment.register_state`), in sorted key order.

Capture is strictly **non-mutating**: it uses the scheduler's
non-destructive ``entries()`` view, reads counters without moving them,
and hashes RNG state instead of drawing from it. A run is byte-identical
with capture enabled or disabled — that property is what makes the
restore-and-continue equivalence contract testable at all.

CPython generators cannot be serialised, so the body is not by itself
enough to *resurrect* in-flight processes; restore
(:mod:`repro.snapshot.restore`) rebuilds the program from the recorded
spec, replays deterministically to the checkpoint, and verifies the
recomputed document against this one via :func:`state_digest`. The full
declarative capture still earns its bytes twice over: it is the
integrity oracle for that verification, and a human-readable record of
exactly what the federation held at the checkpoint.
"""

from __future__ import annotations

import hashlib
import zlib

from repro.util.canonical import canonical_document

__all__ = ["capture_state", "state_digest", "jsonable"]


def jsonable(value):
    """Coerce ``value`` into plain JSON types, deterministically.

    Tuples become lists, mappings keep insertion order (providers sort
    where order is not already deterministic), and anything exotic falls
    back to ``repr`` — which is stable for the dataclasses and enums the
    participants return.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    return repr(value)


def _describe_event(entry) -> dict:
    time, priority, tie, seq, event = entry
    name = getattr(event, "name", None)
    return {
        "name": name if isinstance(name, str) else None,
        "prio": priority,
        "seq": seq,
        "t": time,
        "tie": tie,
        "type": type(event).__name__,
    }


def capture_state(env) -> dict:
    """One declarative document covering kernel + every participant."""
    tie_rng = getattr(env, "_tie_rng", None)
    kernel = {
        "now": env.now,
        # Every `_schedule` issues exactly one seq and one push, so the
        # push counter *is* the next-seq position without peeking the
        # itertools.count.
        "seqs_issued": env.scheduler_stats()["pushes"],
        "tie_break_seed": env.tie_break_seed,
        "tie_rng_crc32": (zlib.crc32(repr(tie_rng.getstate()).encode("utf-8"))
                          if tie_rng is not None else None),
        "pending": [_describe_event(entry) for entry in env.pending()],
    }
    body = {"kernel": kernel}
    for key, provider in env.state_providers():
        body[key] = jsonable(provider())
    return body


def state_digest(body: dict) -> str:
    """sha256 of the canonical serialisation of a captured document."""
    return hashlib.sha256(canonical_document(body).encode("utf-8")).hexdigest()
