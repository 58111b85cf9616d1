"""Observability layer — exertion tracing, metrics, deterministic export.

The paper's Sensor Browser exists to answer "what is the federation doing
right now?"; this package is that answer for the reproduction:

* :class:`Tracer` / :class:`Span` — a simulation-time tracer that opens a
  span per exertion hop (facade → jobber → provider, CSP → child ESP, RPC
  send/receive) with parent/child links carried in the service context
  across hops (:data:`TRACE_PARENT_PATH`), yielding one deterministic span
  tree per request;
* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms shared by every component of a run (exertion latency, queue
  depth, retries, breaker transitions, lease renewals);
* :mod:`export <repro.observability.export>` — byte-stable JSON-lines
  dumps of both, backing the ``repro trace`` CLI and the trace-based test
  harness in ``tests/helpers/tracing.py``.

Everything is keyed per :class:`~repro.net.network.Network` through
:func:`tracer_of` / :func:`metrics_registry`, mirroring how RPC endpoints
and resilience events attach to a run.
"""

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_registry,
)
from .span import (NULL_SPAN, TRACE_PARENT_PATH, Span, get_trace_parent,
                   propagate_trace, set_trace_parent)
from .tracer import Tracer, render_span_tree, tracer_of
from .export import (dump_jsonl, metrics_to_jsonl, render_metrics,
                     trace_to_jsonl)
from .timeseries import TimeSeriesStore, Window
from .slo import Alert, Slo, SloEngine
from .health import (DEGRADED, DOWN, UP, HealthModel, HealthMonitor,
                     default_slos, health_monitor, overload_slos)
from .status import render_health, render_status, status_json
from .profile import FlightRecorder, profile_run, service_times
from .store import HistoryStore, HistoryStoreError

__all__ = [
    "Alert",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEGRADED",
    "DOWN",
    "FlightRecorder",
    "Gauge",
    "HealthModel",
    "HealthMonitor",
    "Histogram",
    "HistoryStore",
    "HistoryStoreError",
    "MetricsRegistry",
    "NULL_SPAN",
    "Slo",
    "SloEngine",
    "Span",
    "TRACE_PARENT_PATH",
    "TimeSeriesStore",
    "Tracer",
    "UP",
    "Window",
    "default_slos",
    "dump_jsonl",
    "health_monitor",
    "overload_slos",
    "render_health",
    "render_metrics",
    "render_status",
    "status_json",
    "metrics_registry",
    "metrics_to_jsonl",
    "get_trace_parent",
    "profile_run",
    "propagate_trace",
    "service_times",
    "set_trace_parent",
    "render_span_tree",
    "tracer_of",
    "trace_to_jsonl",
]
