"""The list-backed tracer ``repro.observability`` shipped before closed spans
were folded into columns, kept verbatim as the oracle the column store is
compared against (``test_tracer_oracle.py``). Not used by ``src``.

Its span is the old mutable ``Span`` too: every span stays a live object in
``spans`` and ``_by_id`` for the whole run, and nothing stops a write after
``end``. :func:`trace_to_jsonl` is the old export over ``spans``. The
disabled-tracer switch is left out: it hands out the shared null span in
both versions."""

from __future__ import annotations

from itertools import count
from typing import Callable, Optional

from repro.util.canonical import canonical_json


class Span:
    __slots__ = ("span_id", "trace_id", "parent_id", "name", "kind", "host",
                 "started_at", "ended_at", "status", "_attributes",
                 "_annotations", "_tracer")

    def __init__(self, tracer, span_id: int, trace_id: int,
                 parent_id: Optional[int], name: str, kind: str,
                 host: Optional[str], started_at: float,
                 attributes: Optional[dict] = None):
        self._tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.host = host
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.status = "open"
        self._attributes = attributes
        self._annotations: Optional[list[tuple]] = None

    def annotate(self, name: str, **fields) -> "Span":
        if self._annotations is None:
            self._annotations = []
        self._annotations.append((float(self._tracer.env.now), str(name),
                                  tuple(sorted(fields.items()))))
        return self

    def set_attribute(self, key: str, value) -> "Span":
        if self._attributes is None:
            self._attributes = {}
        self._attributes[key] = value
        return self

    def end(self, status: str = "ok") -> "Span":
        if self.ended_at is None:
            self.ended_at = self._tracer.env._now
            self.status = status
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        if self.ended_at is None:
            self.end("error")

    @property
    def attributes(self) -> dict:
        if self._attributes is None:
            self._attributes = {}
        return self._attributes

    @property
    def annotations(self) -> list[tuple]:
        return self._annotations if self._annotations is not None else []

    @property
    def duration(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "host": self.host,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "status": self.status,
            "attributes": self.attributes,
            "annotations": [
                {"time": t, "name": n, "fields": dict(f)}
                for t, n, f in self.annotations],
        }


class Tracer:
    """Collects spans for one simulation run."""

    def __init__(self, env):
        self.env = env
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._span_seq = count(1)

    def start_span(self, name: str, kind: str = "span",
                   host: Optional[str] = None,
                   parent_id: Optional[int] = None,
                   **attributes) -> Span:
        parent = self._by_id.get(parent_id) if parent_id is not None else None
        span_id = next(self._span_seq)
        if parent is not None:
            trace_id = parent.trace_id
        else:
            parent_id = None  # drop dangling links: better a root than an orphan
            trace_id = span_id
        span = Span(self, span_id, trace_id, parent_id, name, kind, host,
                    self.env._now,
                    attributes or None)
        self.spans.append(span)
        self._by_id[span_id] = span
        return span

    def reset(self) -> None:
        self.spans.clear()
        self._by_id.clear()
        self._span_seq = count(1)

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span | int) -> list[Span]:
        span_id = span if isinstance(span, int) else span.span_id
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, predicate: Optional[Callable[[Span], bool]] = None,
             name: Optional[str] = None,
             kind: Optional[str] = None) -> list[Span]:
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            if predicate is not None and not predicate(span):
                continue
            out.append(span)
        return out

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.ended_at is None]

    def __len__(self) -> int:
        return len(self.spans)


def trace_to_jsonl(tracer: Tracer) -> str:
    return "\n".join(canonical_json({"record": "span", **span.to_dict()})
                     for span in tracer.spans)
