"""Crash-safe federation snapshot/restore (``repro.snapshot``).

Checkpoint a running federation — sim clock and pending event set,
registries and leases, resilience and overload state, RNG positions —
to a canonical, versioned, atomically-written file; restore it in a
fresh process and continue with byte-identical outputs.

The plane is a leaf: state owners register named providers on their
:class:`repro.sim.Environment` (``env.register_state``) and never import
this package; capture only reads that table.

* :mod:`repro.snapshot.format` — the two-line envelope, typed errors;
* :mod:`repro.snapshot.capture` — declarative state capture + digest;
* :mod:`repro.snapshot.checkpoint` — the in-sim Checkpointer process;
* :mod:`repro.snapshot.programs` — recorded program specs and drivers;
* :mod:`repro.snapshot.restore` — validate, replay, verify, continue;
* :mod:`repro.snapshot.verbs` — the ``snapshot``/``restore`` CLI verbs.
"""

from .format import (
    RestoreMismatch,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotVersionError,
)

__all__ = [
    "RestoreMismatch",
    "SnapshotCorrupt",
    "SnapshotError",
    "SnapshotVersionError",
]
