"""The snapshot envelope: canonical, versioned, torn-write-proof.

The acceptance property from DESIGN §14: truncating a snapshot file at
*any* byte offset — plus bit flips and appended tails — produces a typed
:class:`SnapshotCorrupt`/:class:`SnapshotVersionError`, never partially
decoded state.
"""

import json

import pytest

from repro.snapshot.format import (
    FORMAT,
    VERSION,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotVersionError,
    read_snapshot,
    write_snapshot,
)
from repro.util.canonical import canonical_document

BODY = {"program": {"kind": "status", "seed": 2009},
        "state": {"kernel": {"now": 12.0}, "metrics": {"a": 1}},
        "checkpoint": {"at": 12.0, "index": 0},
        "digest": "d" * 64}


def _write(tmp_path, body=None):
    path = tmp_path / "s.snap"
    digest = write_snapshot(path, body if body is not None else BODY)
    return path, digest


def test_round_trip(tmp_path):
    path, digest = _write(tmp_path)
    assert read_snapshot(path) == BODY
    assert len(digest) == 64


def test_file_is_two_canonical_lines(tmp_path):
    path, digest = _write(tmp_path)
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 3 and lines[2] == b""
    header = json.loads(lines[0])
    assert header == {"format": FORMAT, "version": VERSION,
                      "length": len(lines[1]) + 1, "sha256": digest}
    assert lines[1] + b"\n" == canonical_document(BODY).encode("utf-8")


def test_rewrite_is_byte_stable(tmp_path):
    path_a, _ = _write(tmp_path)
    raw = path_a.read_bytes()
    path_b = tmp_path / "again.snap"
    write_snapshot(path_b, json.loads(json.dumps(BODY)))
    assert path_b.read_bytes() == raw


def test_truncation_at_every_offset_is_typed(tmp_path):
    path, _ = _write(tmp_path)
    raw = path.read_bytes()
    torn = tmp_path / "torn.snap"
    # Every prefix — mid-header, the bare header, mid-body — must raise a
    # typed SnapshotError; nothing may come back as a state document.
    for cut in list(range(0, len(raw), 7)) + [len(raw) - 1]:
        torn.write_bytes(raw[:cut])
        with pytest.raises((SnapshotCorrupt, SnapshotVersionError)):
            read_snapshot(torn)


def test_appended_tail_detected(tmp_path):
    path, _ = _write(tmp_path)
    path.write_bytes(path.read_bytes() + b"{}\n")
    with pytest.raises(SnapshotCorrupt, match="torn write"):
        read_snapshot(path)


def test_flipped_body_bit_detected(tmp_path):
    path, _ = _write(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotCorrupt, match="sha256 mismatch"):
        read_snapshot(path)


def test_unknown_version_is_typed(tmp_path):
    path, _ = _write(tmp_path)
    header, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["version"] = VERSION + 1
    path.write_bytes(canonical_document(doc).encode("utf-8") + body)
    with pytest.raises(SnapshotVersionError, match="version"):
        read_snapshot(path)
    # A file written before the scheduler fields left the body: the v1
    # header verbatim, intact length and checksum, still refused.
    v1_header = (b'{"format":"repro-snapshot","length":%d,"sha256":"%s",'
                 b'"version":1}\n' % (doc["length"], doc["sha256"].encode()))
    path.write_bytes(v1_header + body)
    with pytest.raises(SnapshotVersionError, match="version 1"):
        read_snapshot(path)


def test_foreign_json_file_is_typed(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}\n{}\n', encoding="utf-8")
    with pytest.raises(SnapshotVersionError, match="not a repro-snapshot"):
        read_snapshot(path)


def test_missing_file_is_typed(tmp_path):
    with pytest.raises(SnapshotCorrupt, match="cannot read"):
        read_snapshot(tmp_path / "absent.snap")


def test_empty_file_is_typed(tmp_path):
    path = tmp_path / "empty.snap"
    path.write_bytes(b"")
    with pytest.raises(SnapshotCorrupt, match="truncated"):
        read_snapshot(path)


def test_all_errors_share_the_base_class():
    assert issubclass(SnapshotCorrupt, SnapshotError)
    assert issubclass(SnapshotVersionError, SnapshotError)
