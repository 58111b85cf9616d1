"""Spans — one timed node per exertion hop in the federation.

A span records *who did what, where and when* for a single hop of a
federated request: the requestor side of an exertion (``exert``), the RPC
round trip carrying it (``rpc``), the provider side executing it
(``serve``), and infrastructure actions (``rio``). Parent/child links are
carried across network hops in the exertion's service context (under
:data:`TRACE_PARENT_PATH`, exactly like the resilience layer's
``DEADLINE_PATH``), so a whole facade → jobber → provider → child-CSP
cascade folds into one tree per request.

All timestamps come from the simulation clock and all ids from a plain
per-tracer counter, so two runs with the same seed produce *byte-identical*
traces — the property the trace-based test harness and the determinism
suite are built on.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Span", "NULL_SPAN", "TRACE_PARENT_PATH", "propagate_trace",
           "get_trace_parent", "set_trace_parent"]

#: Service-context path carrying the parent span id across hops.
TRACE_PARENT_PATH = "trace/parent"


class Span:
    """One timed, annotated node of the trace tree.

    Mutable while open; :meth:`end` freezes it whole — end time, status,
    attributes and annotations — and hands it to its tracer, which folds
    closed spans into columns in batches and rebuilds them as views on
    demand (:class:`~repro.observability.tracer.Tracer`). A view equals
    the object its creator held: spans compare and hash on (tracer,
    ``span_id``). A span is its own context manager (``with
    tracer.start_span(...) as span:``), so no exit from the block leaves
    it open. Kept deliberately slim (``__slots__``, plain tuples for
    annotations) — spans are allocated on the hot path of every RPC call.
    """

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
        # The attribute dict is adopted, not copied (the tracer hands us a
        # fresh kwargs dict), and the annotations list is created on first
        # use — both matter at ~700 spans per benchmark run.
        self._attributes = attributes
        self._annotations: Optional[list[tuple]] = None

    # -- recording ------------------------------------------------------------

    def annotate(self, name: str, **fields) -> "Span":
        """Attach a clock-stamped event to this span (a retry scheduled, a
        breaker skipped, a stale value substituted, ...)."""
        if self.ended_at is not None:
            raise ValueError(f"span {self.span_id} ({self.name!r}) has "
                             "ended: annotate it before end()")
        if self._annotations is None:
            self._annotations = []
        self._annotations.append((float(self._tracer.env.now), str(name),
                                  tuple(sorted(fields.items()))))
        return self

    def set_attribute(self, key: str, value) -> "Span":
        if self.ended_at is not None:
            raise ValueError(f"span {self.span_id} ({self.name!r}) has "
                             "ended: set attributes before end()")
        if self._attributes is None:
            self._attributes = {}
        self._attributes[key] = value
        return self

    def end(self, status: str = "ok") -> "Span":
        """Close the span; idempotent (the first close wins)."""
        if self.ended_at is None:
            tracer = self._tracer
            # _now instead of the .now property: end() runs once per hop.
            self.ended_at = tracer.env._now
            self.status = status
            closed = tracer._closed
            closed.append(self)
            if len(closed) >= tracer.COMPACT_BATCH:
                tracer._fold()
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        """Leaving a ``with`` block closes a still-open span as
        ``"error"``: the body ends the span itself on every modelled
        outcome, so reaching here open means something escaped. An ended
        span is left as it is, and an exception always propagates."""
        if self.ended_at is None:
            self.end("error")

    # -- reading --------------------------------------------------------------

    @property
    def attributes(self) -> dict:
        if self._attributes is None:
            self._attributes = {}
        return self._attributes

    @property
    def annotations(self) -> list[tuple]:
        """Ordered (time, name, sorted (key, value) tuple) entries — the
        same shape as :attr:`ResilienceEvents.trace` entries, so span
        annotations compare with plain ``==``."""
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

    def __eq__(self, other) -> bool:
        if type(other) is not Span:
            return NotImplemented
        return (self.span_id == other.span_id
                and self._tracer is other._tracer)

    def __hash__(self) -> int:
        return hash(self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.span_id} {self.name!r} {self.status} "
                f"parent={self.parent_id}>")


class _NullSpan:
    """Do-nothing span returned by a disabled tracer.

    Instrumented code never has to check whether tracing is on: annotate,
    end, set_attribute and the ``with`` protocol all no-op, and
    ``span_id`` is ``None`` so parent propagation is skipped naturally.
    """

    __slots__ = ()
    span_id = None
    trace_id = None
    parent_id = None
    name = "<null>"
    kind = "null"
    host = None
    started_at = 0.0
    ended_at = None
    status = "null"
    attributes: dict = {}
    annotations: list = []
    duration = None

    def annotate(self, name, **fields):
        return self

    def set_attribute(self, key, value):
        return self

    def end(self, status="ok"):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<NullSpan>"


#: The shared no-op span (one instance for the whole process).
NULL_SPAN = _NullSpan()


# The trace-parent accessors poke the context's ``_data`` dict directly:
# TRACE_PARENT_PATH is a known-valid constant, so the per-call path
# validation of put_value/get_value buys nothing, and these run once per
# exertion hop (the ≤5% overhead budget of E-OBS is won in exactly these
# few hot lines).

def get_trace_parent(ctx) -> Optional[int]:
    """The parent span id carried by ``ctx``, or ``None``."""
    return ctx._data.get(TRACE_PARENT_PATH)


def set_trace_parent(ctx, span_id: int) -> None:
    """Stamp ``span_id`` as the trace parent for nested hops."""
    ctx._data[TRACE_PARENT_PATH] = span_id


def propagate_trace(src_ctx, dst_ctx) -> None:
    """Copy the trace-parent link from one service context to another.

    Used wherever a provider fans a request out into nested exertions with
    fresh contexts (a jobber running components, a CSP collecting children,
    the facade exerting management tasks), so the nested hop's span becomes
    a child of the current hop's span.
    """
    if src_ctx is None or dst_ctx is None:
        return
    parent = src_ctx._data.get(TRACE_PARENT_PATH)
    if parent is not None:
        dst_ctx._data[TRACE_PARENT_PATH] = parent
