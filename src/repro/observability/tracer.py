"""The simulation-time tracer: deterministic span trees per network.

One :class:`Tracer` exists per :class:`~repro.net.network.Network` (lazily
created through :func:`tracer_of`, like per-host RPC endpoints and the
resilience event stream), so every instrumented component in a run records
into a single tracer. Span ids are plain counters and timestamps are
simulation seconds, which makes the whole trace a pure function of the
scenario seed.

A run keeps its whole trace in process, but not as live objects. Open
spans are :class:`~repro.observability.span.Span` objects; a closed one
waits in a short list, and every :attr:`Tracer.COMPACT_BATCH` of them are
folded in one loop into per-tracer columns: row ``span_id - 1`` of typed
arrays holds the trace id, parent id, start and end time and an index into
an interned table of (name, kind, host, status, attributes) shapes, and a
side dict keeps annotations by row. Every reader streams the rows in
creation order, filters on the columns first and builds a span view only
for what it returns; a view equals the span its creator held.

Tracing is on by default — opening a span is a counter bump and a dict
write, closing it a list append, plus the amortised fold — and can be
switched off wholesale (``tracer.enabled = False``) for overhead
ablations: a disabled tracer hands out the shared
:data:`~repro.observability.span.NULL_SPAN` and records nothing.
"""

from __future__ import annotations

import zlib
from array import array
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from .span import NULL_SPAN, Span

__all__ = ["Tracer", "tracer_of", "render_span_tree"]

_SPAN_ID = attrgetter("span_id")


class Tracer:
    """Collects spans for one simulation run."""

    #: Closed spans wait as objects until this many are pending, then one
    #: loop folds them into the columns: a run holds at most this many
    #: closed ``Span`` objects, and E-OBS's 765-span runs fold twice. The
    #: trade-off against a smaller batch is in EXPERIMENTS E-E2E, PR 39.
    COMPACT_BATCH = 256

    def __init__(self, env, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self._live: dict[int, Span] = {}
        self.reset()

    # -- recording ------------------------------------------------------------

    def start_span(self, name: str, kind: str = "span",
                   host: Optional[str] = None,
                   parent_id: Optional[int] = None,
                   **attributes) -> Span:
        """Open a span; returns :data:`NULL_SPAN` when tracing is disabled.

        A span whose ``parent_id`` is unknown (or ``None``) roots a new
        trace; otherwise it joins its parent's trace. Span ids are plain
        counter ints (a root's trace id is its own span id): the cheapest
        deterministic id there is — no string formatting on the hot path
        and an atomic value for the context serialization to carry.
        """
        if not self.enabled:
            return NULL_SPAN
        span_id = self._next_id
        self._next_id = span_id + 1
        if parent_id is None:
            trace_id = span_id
        else:
            parent = self._live.get(parent_id)
            if parent is not None:
                trace_id = parent.trace_id
            elif isinstance(parent_id, int) and 0 < parent_id < span_id:
                trace_id = self._trace_ids[parent_id - 1]  # a folded row
            else:
                parent_id = None  # drop dangling links: better a root than an orphan
                trace_id = span_id
        span = self._live[span_id] = Span(
            self, span_id, trace_id, parent_id, name, kind, host,
            self.env._now,  # skip the property: once per hop
            attributes or None)
        return span

    def reset(self) -> None:
        """Drop all recorded spans (id counters restart too). A span
        opened before the reset is handed to a detached recorder, so
        ending it afterwards records nothing here."""
        if self._live:
            detached = _Detached(self.env)
            for span in self._live.values():
                span._tracer = detached
        self._next_id = 1
        #: Spans not folded yet, open or closed, by id (creation order).
        self._live: dict[int, Span] = {}
        #: Closed spans waiting for the next fold (appended by Span.end).
        self._closed: list[Span] = []
        # The columns, row = span_id - 1. Rows of live spans hold zeros.
        self._trace_ids = array("q")
        self._parent_ids = array("q")  # 0: a root
        self._starts = array("d")
        self._ends = array("d")
        self._shape_of = array("I")
        #: Shape keys by index: (name, kind, host, status, *attribute
        #: keys, *attribute values).
        self._shapes: list[tuple] = []
        self._shape_ids: dict[tuple, int] = {}
        self._typed_ids: dict[tuple, int] = {}
        self._notes: dict[int, list] = {}

    def _fold(self) -> None:
        """Move every pending closed span into the columns."""
        grow = self._next_id - 1 - len(self._starts)
        if grow > 0:
            zeros = bytes(8 * grow)
            self._trace_ids.frombytes(zeros)
            self._parent_ids.frombytes(zeros)
            self._starts.frombytes(zeros)
            self._ends.frombytes(zeros)
            self._shape_of.frombytes(bytes(self._shape_of.itemsize * grow))
        live, notes = self._live, self._notes
        trace_ids, parent_ids = self._trace_ids, self._parent_ids
        starts, ends, shape_of = self._starts, self._ends, self._shape_of
        shape_ids = self._shape_ids
        for span in self._closed:
            span_id = span.span_id
            del live[span_id]
            row = span_id - 1
            trace_ids[row] = span.trace_id
            parent_ids[row] = span.parent_id or 0
            starts[row] = span.started_at
            ends[row] = span.ended_at
            attributes = span._attributes
            # One flat tuple: the four fields, then the attribute keys,
            # then their values.
            key = ((span.name, span.kind, span.host, span.status,
                    *attributes, *attributes.values())
                   if attributes else
                   (span.name, span.kind, span.host, span.status))
            try:
                shape_of[row] = shape_ids[key]
            except (KeyError, TypeError):
                shape_of[row] = self._new_shape(key)
            if span._annotations is not None:
                notes[row] = span._annotations
        self._closed.clear()

    def _new_shape(self, key: tuple) -> int:
        """The shape of a key not in ``_shape_ids``: a new entry, unless
        an attribute key or value is not exactly a ``str``. Such a key is
        never entered there, because equal values of different types (1,
        1.0 and True; a str subclass) hash alike but export differently;
        it is looked up by its types in ``_typed_ids`` instead, and an
        unhashable value gets a shape of its own."""
        shape = len(self._shapes)
        try:
            if any(type(item) is not str for item in key[4:]):
                shape = self._typed_ids.setdefault(
                    (key, tuple(map(type, key[4:]))), shape)
            else:
                self._shape_ids[key] = shape
        except TypeError:  # unhashable
            pass
        if shape == len(self._shapes):
            self._shapes.append(key)
        return shape

    # -- reading --------------------------------------------------------------

    def _view(self, row: int) -> Span:
        """A closed span rebuilt from its folded row."""
        shape = self._shapes[self._shape_of[row]]
        attributes = None
        if len(shape) > 4:
            half = (len(shape) - 4) // 2
            attributes = dict(zip(shape[4:4 + half], shape[4 + half:]))
        span = Span(self, row + 1, self._trace_ids[row],
                    self._parent_ids[row] or None, shape[0], shape[1],
                    shape[2], self._starts[row], attributes)
        span.ended_at = self._ends[row]
        span.status = shape[3]
        span._annotations = self._notes.get(row)
        return span

    def _rows(self, keep: Optional[Callable[[int], bool]]
              ) -> Iterator[Span]:
        """Every span in creation order: a live one as itself, a folded row
        as a view, built only if ``keep(row)`` passes when given (callers
        test live spans themselves)."""
        live, view = self._live, self._view
        for row in range(self._next_id - 1):
            span = live.get(row + 1)
            if span is not None:
                yield span
            elif keep is None or keep(row):
                yield view(row)

    def __iter__(self) -> Iterator[Span]:
        return self._rows(None)

    @property
    def spans(self) -> list[Span]:
        """Every span in creation order (a read-only snapshot)."""
        return list(self._rows(None))

    def get(self, span_id: int) -> Optional[Span]:
        span = self._live.get(span_id)
        if (span is None and isinstance(span_id, int)
                and 0 < span_id <= len(self._starts)):
            return self._view(span_id - 1)
        return span

    def roots(self) -> list[Span]:
        parent_ids = self._parent_ids
        return [s for s in self._rows(lambda row: not parent_ids[row])
                if s.parent_id is None]

    def children(self, span: Span | int) -> list[Span]:
        span_id = span if isinstance(span, int) else span.span_id
        found = [s for s in self._live.values() if s.parent_id == span_id]
        # Folded children by a C-level scan of the parent column; a live
        # row holds 0 there, which no span id equals.
        parent_ids, row = self._parent_ids, -1
        if span_id:
            try:
                while True:
                    row = parent_ids.index(span_id, row + 1)
                    found.append(self._view(row))
            except ValueError:
                pass
        found.sort(key=_SPAN_ID)
        return found

    def find(self, predicate: Optional[Callable[[Span], bool]] = None,
             name: Optional[str] = None,
             kind: Optional[str] = None) -> list[Span]:
        """Spans matching all given filters, in creation order."""
        keep = None
        if name is not None or kind is not None:
            wanted = [(name is None or shape[0] == name)
                      and (kind is None or shape[1] == kind)
                      for shape in self._shapes]
            shape_of = self._shape_of
            keep = lambda row: wanted[shape_of[row]]  # noqa: E731
        out = []
        for span in self._rows(keep):
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            if predicate is not None and not predicate(span):
                continue
            out.append(span)
        return out

    def open_spans(self) -> list[Span]:
        return [s for s in self._live.values() if s.ended_at is None]

    def __len__(self) -> int:
        return self._next_id - 1


class _Detached:
    """Where the spans open at a :meth:`Tracer.reset` end: nothing is
    recorded, and the closed spans are let go."""

    COMPACT_BATCH = Tracer.COMPACT_BATCH

    def __init__(self, env):
        self.env = env
        self._closed: list[Span] = []

    def _fold(self) -> None:
        self._closed.clear()


def tracer_of(network) -> Tracer:
    """The network's shared tracer (created on first use)."""
    tracer = network.shared.get("tracer")
    if tracer is None:
        tracer = network.shared["tracer"] = Tracer(network.env)

        def _trace_state() -> dict:
            # Spans would dwarf every other section; a count plus a crc32
            # of the canonical JSONL pins the trace byte-for-byte without
            # embedding it. The crc is fed line by line, so the document
            # is never built whole.
            from .export import trace_lines
            lines = trace_lines(tracer)
            crc = zlib.crc32(next(lines, "").encode("utf-8"))
            for line in lines:
                crc = zlib.crc32(b"\n" + line.encode("utf-8"), crc)
            return {"crc32": crc, "spans": len(tracer)}

        network.env.register_state("trace", _trace_state)
    return tracer


def _render_one(tracer: Tracer, span: Span, depth: int,
                lines: list, annotations: bool) -> None:
    pad = "  " * depth
    if span.ended_at is None:
        timing = f"t={span.started_at:.3f}.. (open)"
    else:
        timing = (f"t={span.started_at:.3f} +{span.duration * 1000:.1f}ms "
                  f"{span.status}")
    where = f" @{span.host}" if span.host else ""
    lines.append(f"{pad}{span.name} [{span.kind}]{where} {timing}")
    if annotations:
        for t, name, fields in span.annotations:
            detail = " ".join(f"{k}={v}" for k, v in fields)
            lines.append(f"{pad}  * {t:.3f} {name}" + (f" {detail}" if detail else ""))
    for child in tracer.children(span):
        _render_one(tracer, child, depth + 1, lines, annotations)


def render_span_tree(tracer: Tracer,
                     roots: Optional[Iterable[Span]] = None,
                     annotations: bool = True) -> str:
    """ASCII rendering of the span forest (indent = parent/child)."""
    lines: list[str] = []
    for root in (roots if roots is not None else tracer.roots()):
        _render_one(tracer, root, 0, lines, annotations)
    return "\n".join(lines)
