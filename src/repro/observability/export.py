"""JSON-lines export of traces and metrics, plus the metrics table.

One line per span (creation order) and one line per metric (sorted name
order), serialized with sorted keys and compact separators — the output is
a pure function of the run, so two identically seeded scenario runs export
*byte-identical* files. That property is asserted by the determinism suite
and is what makes traces diffable artifacts.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..util.canonical import canonical_json
from ..util.table import render_table
from .quantiles import quantile_from_buckets
from .registry import MetricsRegistry
from .tracer import Tracer

__all__ = ["trace_lines", "trace_to_jsonl", "metrics_to_jsonl",
           "dump_jsonl", "render_metrics"]


def trace_lines(tracer: Tracer) -> Iterator[str]:
    """Every span as one ``{"record": "span", ...}`` JSON line, streamed
    in creation order (no trailing newlines)."""
    for span in tracer:
        yield canonical_json({"record": "span", **span.to_dict()})


def trace_to_jsonl(tracer: Tracer) -> str:
    """The whole trace: :func:`trace_lines` joined by newlines."""
    return "\n".join(trace_lines(tracer))


def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """Every instrument as one ``{"record": "metric", ...}`` JSON line."""
    snapshot = registry.snapshot()
    return "\n".join(
        canonical_json({"record": "metric", "name": name, **entry})
        for name, entry in snapshot.items())


def dump_jsonl(path, tracer: Optional[Tracer] = None,
               registry: Optional[MetricsRegistry] = None) -> int:
    """Write trace and/or metrics lines to ``path``; returns line count.
    The trace is written a line at a time, never joined whole."""
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        if tracer is not None:
            for line in trace_lines(tracer):
                fh.write(line + "\n")
                written += 1
        if registry is not None and len(registry):
            text = metrics_to_jsonl(registry)
            fh.write(text + "\n")
            written += text.count("\n") + 1
    return written


def render_metrics(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` mapping as a table.

    Counters/gauges show their value; histograms show count, mean and
    the interpolated p95 estimate.
    """
    rows = []
    for name, entry in snapshot.items():
        kind, data = entry["type"], entry["data"]
        if kind == "counter":
            rows.append([name, kind, data, None, None])
        elif kind == "gauge":
            rows.append([name, kind, data["value"], data["max"], None])
        else:  # histogram
            mean = data["total"] / data["count"] if data["count"] else None
            p95 = quantile_from_buckets(data["buckets"], data["counts"], 0.95)
            rows.append([name, kind, data["count"], mean, p95])
    return render_table(["metric", "type", "value/count", "mean/max", "p95"],
                        rows, title="Metrics")
