"""The on-disk snapshot envelope: canonical, versioned, torn-write-proof.

A snapshot file is exactly two ``\\n``-terminated lines of JSON:

* **header** — ``{"format": "repro-snapshot", "version": 2,
  "length": <body bytes>, "sha256": <body digest>}`` with canonical key
  order;
* **body** — the canonical JSON state document produced by
  :mod:`repro.snapshot.capture`.

Files are written through :class:`repro.util.atomicio.AtomicFile`
(tmp + fsync + rename), so a crash mid-write leaves either the previous
file or nothing. A torn read — truncation at *any* byte offset, a
flipped bit, a concatenated tail — fails one of the envelope checks
(header parse, declared length, sha256) and raises the typed
:class:`SnapshotCorrupt`; no partially-decoded state ever escapes.

Version bumps are deliberate: an unknown ``version`` raises
:class:`SnapshotVersionError` rather than guessing at field semantics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.util.atomicio import atomic_write_bytes
from repro.util.canonical import canonical_document

__all__ = [
    "FORMAT",
    "VERSION",
    "SnapshotError",
    "SnapshotCorrupt",
    "SnapshotVersionError",
    "RestoreMismatch",
    "write_snapshot",
    "read_snapshot",
]

FORMAT = "repro-snapshot"
#: 2: the kernel section and program spec no longer carry a ``scheduler``
#: field (there is one scheduler), which changed the digested body.
VERSION = 2


class SnapshotError(Exception):
    """Base class for every snapshot/restore failure."""


class SnapshotCorrupt(SnapshotError):
    """The file on disk is not a complete, intact snapshot."""


class SnapshotVersionError(SnapshotError):
    """The snapshot is intact but written by an incompatible version."""


class RestoreMismatch(SnapshotError):
    """Replayed state disagrees with the captured state at the checkpoint."""


def write_snapshot(path, body: dict) -> str:
    """Write ``body`` to ``path`` atomically; return the body sha256."""
    body_bytes = canonical_document(body).encode("utf-8")
    digest = hashlib.sha256(body_bytes).hexdigest()
    header = canonical_document({
        "format": FORMAT,
        "length": len(body_bytes),
        "sha256": digest,
        "version": VERSION,
    }).encode("utf-8")
    atomic_write_bytes(path, header + body_bytes)
    return digest


def read_snapshot(path) -> dict:
    """Read and validate a snapshot file, returning the body document.

    Raises :class:`SnapshotCorrupt` on any structural damage and
    :class:`SnapshotVersionError` on a format/version mismatch. Both fire
    before any state is handed to a restorer.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotCorrupt(f"cannot read snapshot {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotCorrupt(f"{path}: truncated before header terminator")
    header_bytes, body_bytes = raw[: newline + 1], raw[newline + 1 :]
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotCorrupt(f"{path}: header is not valid JSON") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise SnapshotVersionError(f"{path}: not a {FORMAT} file")
    if header.get("version") != VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot version {header.get('version')!r}, "
            f"this build reads version {VERSION}")
    declared = header.get("length")
    if not isinstance(declared, int) or declared != len(body_bytes):
        raise SnapshotCorrupt(
            f"{path}: body is {len(body_bytes)} bytes, header declares "
            f"{declared!r} (torn write?)")
    digest = hashlib.sha256(body_bytes).hexdigest()
    if digest != header.get("sha256"):
        raise SnapshotCorrupt(f"{path}: body sha256 mismatch")
    try:
        body = json.loads(body_bytes)
    except ValueError as exc:  # pragma: no cover - checksum makes this
        raise SnapshotCorrupt(f"{path}: body is not valid JSON") from exc
    if not isinstance(body, dict):
        raise SnapshotCorrupt(f"{path}: body is not a JSON object")
    return body
