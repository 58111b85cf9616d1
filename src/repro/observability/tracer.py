"""The simulation-time tracer: deterministic span trees per network.

One :class:`Tracer` exists per :class:`~repro.net.network.Network` (lazily
created through :func:`tracer_of`, like per-host RPC endpoints and the
resilience event stream), so every instrumented component in a run appends
to a single ordered span list. Span ids are plain counters and timestamps
are simulation seconds, which makes the whole trace a pure function of the
scenario seed.

Tracing is on by default — recording is an append and a couple of dict
writes — and can be switched off wholesale (``tracer.enabled = False``) for
overhead ablations: a disabled tracer hands out the shared
:data:`~repro.observability.span.NULL_SPAN` and records nothing.
"""

from __future__ import annotations

import zlib
from itertools import count
from typing import Callable, Iterable, Optional

from .span import NULL_SPAN, Span

__all__ = ["Tracer", "tracer_of", "render_span_tree"]


class Tracer:
    """Collects spans for one simulation run."""

    def __init__(self, env, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._span_seq = count(1)

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
        parent = self._by_id.get(parent_id) if parent_id is not None else None
        span_id = next(self._span_seq)
        if parent is not None:
            trace_id = parent.trace_id
        else:
            parent_id = None  # drop dangling links: better a root than an orphan
            trace_id = span_id
        span = Span(self, span_id, trace_id, parent_id, name, kind, host,
                    self.env._now,  # skip the property: once per hop
                    attributes or None)
        self.spans.append(span)
        self._by_id[span_id] = span
        return span

    def reset(self) -> None:
        """Drop all recorded spans (id counters restart too)."""
        self.spans.clear()
        self._by_id.clear()
        self._span_seq = count(1)

    # -- reading --------------------------------------------------------------

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
        """Spans matching all given filters, in creation order."""
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


def tracer_of(network) -> Tracer:
    """The network's shared tracer (created on first use)."""
    tracer = network.shared.get("tracer")
    if tracer is None:
        tracer = network.shared["tracer"] = Tracer(network.env)

        def _trace_state() -> dict:
            # Spans would dwarf every other section; a count plus a crc32
            # of the canonical JSONL pins the trace byte-for-byte without
            # embedding it.
            from .export import trace_to_jsonl
            return {"crc32": zlib.crc32(
                        trace_to_jsonl(tracer).encode("utf-8")),
                    "spans": len(tracer)}

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
