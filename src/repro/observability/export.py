"""JSON-lines export of traces and metrics.

One line per span (creation order) and one line per metric (sorted name
order), serialized with sorted keys and compact separators — the output is
a pure function of the run, so two identically seeded scenario runs export
*byte-identical* files. That property is asserted by the determinism suite
and is what makes traces diffable artifacts.
"""

from __future__ import annotations

from typing import Optional

from ..util.canonical import canonical_json
from .registry import MetricsRegistry
from .tracer import Tracer

__all__ = ["trace_to_jsonl", "metrics_to_jsonl", "dump_jsonl"]


def trace_to_jsonl(tracer: Tracer) -> str:
    """Every span as one ``{"record": "span", ...}`` JSON line."""
    return "\n".join(canonical_json({"record": "span", **span.to_dict()})
                     for span in tracer.spans)


def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """Every instrument as one ``{"record": "metric", ...}`` JSON line."""
    snapshot = registry.snapshot()
    return "\n".join(
        canonical_json({"record": "metric", "name": name, **entry})
        for name, entry in snapshot.items())


def dump_jsonl(path, tracer: Optional[Tracer] = None,
               registry: Optional[MetricsRegistry] = None) -> int:
    """Write trace and/or metrics lines to ``path``; returns line count."""
    parts = []
    if tracer is not None and len(tracer):
        parts.append(trace_to_jsonl(tracer))
    if registry is not None and len(registry):
        parts.append(metrics_to_jsonl(registry))
    text = "\n".join(p for p in parts if p)
    with open(path, "w", encoding="utf-8") as fh:
        if text:
            fh.write(text + "\n")
    return text.count("\n") + 1 if text else 0
