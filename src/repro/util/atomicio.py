"""Crash-safe file writes — tmp + fsync + rename, shared by every artifact.

A snapshot or a benchmark report that a crash can tear is worse than
no file at all: the reader sees syntactically broken (or,
nastier, syntactically valid but truncated) content. Every durable
artifact the CLI writes goes through this module instead of a bare
``open``/``write_text``:

1. the content is written to ``<name>.tmp.<pid>`` in the destination
   directory (same filesystem, so the rename below is atomic);
2. the file descriptor is flushed and ``fsync``-ed (the data is on disk,
   not in the page cache);
3. the temp file is atomically renamed over the destination;
4. the containing directory is fsync-ed where the platform allows it, so
   the rename itself survives a power cut.

A crash at any point leaves either the old file or the new file — never
a prefix of the new one. The stray ``.tmp.<pid>`` from a mid-write crash
is inert (nothing ever reads temp names).

:class:`AtomicFile` is the streaming variant with an explicit
``close()``/``abort()`` protocol; a write that raises aborts, leaving the
old file and no temp file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["AtomicFile", "atomic_write_bytes", "atomic_write_text"]


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry after a rename (best effort: some
    platforms/filesystems refuse O_RDONLY directory fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


class AtomicFile:
    """A binary write handle whose content appears atomically on
    ``close()``.

    Writes accumulate in a same-directory temp file; ``close()`` fsyncs
    and renames it over ``path``; ``abort()`` (or ``close(commit=False)``)
    removes the temp file and leaves any existing ``path`` untouched.
    Usable as a context manager: the ``with`` body committing normally
    publishes the file, an exception aborts it.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._tmp = self.path.with_name(
            f"{self.path.name}.tmp.{os.getpid()}")
        self._fh = open(self._tmp, "wb")
        self._done = False

    def write(self, data) -> int:
        return self._fh.write(data)

    def close(self, commit: bool = True) -> None:
        """Publish (default) or discard the accumulated content."""
        if self._done:
            return
        self._done = True
        if commit:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            os.replace(self._tmp, self.path)
            _fsync_dir(self.path.parent)
        else:
            self._fh.close()
            try:
                os.unlink(self._tmp)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def abort(self) -> None:
        """Discard: remove the temp file, leave the destination untouched."""
        self.close(commit=False)

    def __enter__(self) -> "AtomicFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(commit=exc_type is None)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` crash-safely (tmp + fsync + rename)."""
    handle = AtomicFile(path)
    try:
        handle.write(data)
    except BaseException:
        handle.abort()
        raise
    handle.close()


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, crash-safely (tmp + fsync +
    rename)."""
    atomic_write_bytes(path, text.encode("utf-8"))
