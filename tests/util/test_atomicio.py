"""Crash-safe writes: commit publishes atomically, abort leaves no trace."""

import os

import pytest

from repro.util.atomicio import AtomicFile, atomic_write_bytes, atomic_write_text


def _temp_files(directory):
    return [name for name in sorted(os.listdir(directory)) if ".tmp." in name]


def test_write_text_round_trip(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, '{"a":1}\n')
    assert target.read_text(encoding="utf-8") == '{"a":1}\n'
    assert _temp_files(tmp_path) == []


def test_write_bytes_overwrites_previous(tmp_path):
    target = tmp_path / "artifact.bin"
    atomic_write_bytes(target, b"old")
    atomic_write_bytes(target, b"new")
    assert target.read_bytes() == b"new"
    assert _temp_files(tmp_path) == []


def test_abort_preserves_existing_content(tmp_path):
    target = tmp_path / "artifact.txt"
    atomic_write_text(target, "original\n")
    handle = AtomicFile(target)
    handle.write(b"half-writ")
    handle.abort()
    assert target.read_text(encoding="utf-8") == "original\n"
    assert _temp_files(tmp_path) == []


def test_failed_write_keeps_old_content_and_no_temp_file(tmp_path):
    target = tmp_path / "artifact.bin"
    atomic_write_bytes(target, b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(target, "not bytes")
    assert target.read_bytes() == b"old"
    assert _temp_files(tmp_path) == []


def test_abort_without_existing_leaves_nothing(tmp_path):
    target = tmp_path / "never.txt"
    handle = AtomicFile(target)
    handle.write(b"discarded")
    handle.abort()
    assert not target.exists()
    assert _temp_files(tmp_path) == []


def test_context_manager_commits_on_success(tmp_path):
    target = tmp_path / "ok.txt"
    with AtomicFile(target) as handle:
        handle.write(b"done\n")
    assert target.read_text(encoding="utf-8") == "done\n"


def test_context_manager_aborts_on_exception(tmp_path):
    target = tmp_path / "broken.txt"
    atomic_write_text(target, "before\n")
    with pytest.raises(RuntimeError):
        with AtomicFile(target) as handle:
            handle.write(b"partial")
            raise RuntimeError("writer died")
    assert target.read_text(encoding="utf-8") == "before\n"
    assert _temp_files(tmp_path) == []


def test_content_invisible_until_close(tmp_path):
    target = tmp_path / "staged.txt"
    handle = AtomicFile(target)
    handle.write(b"staged")
    assert not target.exists()
    handle.close()
    assert target.read_text(encoding="utf-8") == "staged"


def test_close_is_idempotent(tmp_path):
    target = tmp_path / "twice.txt"
    handle = AtomicFile(target)
    handle.write(b"x")
    handle.close()
    handle.close()
    handle.abort()  # after a commit, abort is a no-op too
    assert target.read_text(encoding="utf-8") == "x"


def test_binary_mode(tmp_path):
    target = tmp_path / "raw.bin"
    with AtomicFile(target) as handle:
        handle.write(b"\x00\xff")
    assert target.read_bytes() == b"\x00\xff"
