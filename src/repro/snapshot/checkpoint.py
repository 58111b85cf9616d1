"""The Checkpointer — a sim process that captures state at fixed times.

A :class:`Checkpointer` is itself part of the simulated program: it runs
as a LOW-priority process with an explicit schedule of absolute sim
times, so every checkpoint lands *after* all ordinary events at that
instant, at a position that is part of the deterministic event order.
That is the crux of the restore contract — a restored run re-creates the
Checkpointer with the identical schedule, so its timeouts consume the
same tie-break RNG draws and sequence numbers as the original run, and
the continuation beyond the checkpoint is byte-identical.

Captures accumulate on :attr:`Checkpointer.captures`; when a ``sink``
path and ``program`` spec are given, each capture is also written to
disk as a complete restartable snapshot file via
:func:`repro.snapshot.format.write_snapshot` (atomic, checksummed).
"""

from __future__ import annotations

from pathlib import Path

from repro.sim import LOW
from repro.snapshot.capture import capture_state, state_digest
from repro.snapshot.format import write_snapshot

__all__ = ["Checkpointer", "snapshot_document"]


def snapshot_document(program: dict, schedule, index: int, at: float,
                      state: dict, label: str = "") -> dict:
    """Assemble the full on-disk snapshot body for one checkpoint."""
    return {
        "checkpoint": {
            "at": at,
            "index": index,
            "label": label,
            "schedule": [float(t) for t in schedule],
        },
        "digest": state_digest(state),
        "program": program,
        "state": state,
    }


class Checkpointer:
    """Capture federation state at each absolute time in ``at``.

    ``sink`` may be a directory (one ``checkpoint-<index>.snap`` per
    capture) or a single file path (overwritten atomically each capture,
    keeping only the latest — the classic crash-recovery shape).
    """

    def __init__(self, env, at, sink=None, program: dict | None = None,
                 label: str = "checkpoint", on_capture=None):
        self.env = env
        self.schedule = sorted(float(t) for t in at)
        self.sink = Path(sink) if sink is not None else None
        self.program = program
        self.label = label
        #: Optional ``(index, at, state, digest)`` hook, invoked at the
        #: checkpoint instant — restore uses it to verify replayed state
        #: *before* the continuation proceeds.
        self.on_capture = on_capture
        #: ``(index, at, state, digest)`` per capture, in order.
        self.captures: list = []
        #: Paths written, parallel to :attr:`captures` (empty without sink).
        self.written: list = []
        self.process = env.process(self._run(), name=f"snapshot:{label}")

    def _path_for(self, index: int) -> Path:
        assert self.sink is not None
        if self.sink.suffix:
            return self.sink
        return self.sink / f"checkpoint-{index}.snap"

    def _capture(self, index: int, at: float) -> None:
        state = capture_state(self.env)
        digest = state_digest(state)
        self.captures.append((index, at, state, digest))
        if self.sink is None:
            return
        if self.program is None:
            raise ValueError("Checkpointer sink requires a program spec")
        body = snapshot_document(self.program, self.schedule, index, at,
                                 state, label=self.label)
        path = self._path_for(index)
        if self.sink.suffix is None or not self.sink.suffix:
            path.parent.mkdir(parents=True, exist_ok=True)
        write_snapshot(path, body)
        self.written.append(path)

    def _run(self):
        for index, at in enumerate(self.schedule):
            delay = at - self.env.now
            if delay < 0:
                continue
            yield self.env.timeout(delay, priority=LOW)
            self._capture(index, at)
            if self.on_capture is not None:
                self.on_capture(*self.captures[-1])
