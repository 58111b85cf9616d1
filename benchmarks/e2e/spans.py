"""Wrapper spans: host-time tracing installed from outside the program.

The traced pass wraps the public entry points of every layer so that each
call — or, for a generator-valued entry point, each resume segment between
``send``/``throw`` and the next ``yield`` — becomes a span with a name,
start, end, parent and the id of the op in flight. Execution inside one
kernel event is plain nested calls, so a stack of open spans is enough to
give every span its parent and its *self time* (duration minus the part
its child spans cover).

Nothing here changes what the program computes: wrappers pass arguments,
results and exceptions straight through, generator proxies yield exactly
the events the wrapped generator yields, and proxies keep the wrapped
generator's ``__name__`` so kernel process names (and with them the flight
recorder's rows) stay as they are. ``sim_digest`` equality between the
traced and untraced pass is the proof, checked on every run.
"""

from __future__ import annotations

import functools
import inspect
import json

__all__ = ["SpanRecorder", "install"]


class SpanRecorder:
    """Collects spans while ``active``; aggregates self time per name."""

    def __init__(self, clock, keep: int = 200_000):
        self.clock = clock
        self.active = False
        self.env = None
        self.op = 0                 # id of the op in flight
        self._stack: list = []      # open frames: [name, start, child_s, id, parent]
        self._ids = 0
        self.self_s: dict = {}      # span name -> self seconds
        self.calls: dict = {}       # span name -> spans closed
        #: span name -> invocations of a generator-valued entry point
        #: (``calls`` counts its resume segments instead).
        self.begun: dict = {}
        #: kernel process name (None outside a process) -> seconds covered
        #: by spans with no parent: what to subtract from that process's
        #: flight-recorder row to get its own glue time.
        self.top_s: dict = {}
        self.keep = keep
        self.spans: list = []       # (id, parent, name, start, end, op)
        self.dropped = 0

    def start(self, env) -> None:
        self.env = env
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- recording ------------------------------------------------------------

    def enter(self, name: str) -> list:
        stack = self._stack
        self._ids += 1
        frame = [name, 0.0, 0.0, self._ids, stack[-1][3] if stack else 0]
        stack.append(frame)
        frame[1] = self.clock()  # last, so bookkeeping is not in the span
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        if stack:
            stack[-1][2] += duration
        else:
            process = self.env.active_process
            key = process.name if process is not None else None
            self.top_s[key] = self.top_s.get(key, 0.0) + duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end, self.op))
        else:
            self.dropped += 1

    # -- wrapping -------------------------------------------------------------

    def wrap_call(self, name: str, fn):
        """Span around a plain call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
        return wrapper

    def wrap_generator(self, name: str, fn):
        """``fn`` is a generator function: time its resume segments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begun[name] = self.begun.get(name, 0) + 1
            return self.timed(name, fn(*args, **kwargs))
        return wrapper

    def wrap_either(self, name: str, fn):
        """``fn`` answers directly or hands back a generator (operation
        handlers do either): span the call, then the segments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begun[name] = self.begun.get(name, 0) + 1
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if inspect.isgenerator(result):
                return self.timed(name, result)
            return result
        return wrapper

    def timed(self, name: str, generator):
        proxy = self._segments(name, generator)
        proxy.__name__ = getattr(generator, "__name__", name)
        proxy.__qualname__ = getattr(generator, "__qualname__", name)
        return proxy

    def _segments(self, name: str, generator):
        send, throw = generator.send, generator.throw
        value = error = None
        try:
            while True:
                frame = self.enter(name) if self.active else None
                try:
                    item = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if frame is not None:
                        self.exit(frame)
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    raise
                except BaseException as thrown:  # repro: allow[SIM001]
                    # Not swallowed: Interrupts and failures are thrown
                    # into the wrapped generator on the next segment.
                    value, error = None, thrown
        finally:
            generator.close()

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> str:
        """The kept spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): complete events, one track per layer."""
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": round(start * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "pid": 1, "tid": name.split(".", 1)[0],
                   "args": {"id": span_id, "parent": parent, "op": op}}
                  for span_id, parent, name, start, end, op in self.spans]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ns",
                           "otherData": {"dropped_spans": self.dropped}})


def _operation_span(provider) -> str:
    """Span name for an ``add_operation`` handler, by provider kind."""
    from repro.core import (CompositeSensorProvider, ElementarySensorProvider,
                            SensorcerFacade)
    for cls, name in ((SensorcerFacade, "core.facade"),
                      (CompositeSensorProvider, "core.csp"),
                      (ElementarySensorProvider, "core.esp")):
        if isinstance(provider, cls):
            return name
    return "sorcer.operation"  # jobber, spacer: SORCER's own providers


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points. Call before the scenario is
    built (operation handlers are captured at construction); spans are
    only recorded while the recorder is active. One-way: the traced pass
    runs in its own subprocess, so nothing is ever restored."""
    from repro.expr.evaluator import Expression
    from repro.jini.lookup import LookupService
    from repro.net import message as net_message
    from repro.net.network import Network
    from repro.net.rpc import RpcEndpoint
    from repro.observability.health import HealthMonitor
    from repro.observability.registry import Counter, Gauge, Histogram
    from repro.observability.span import Span
    from repro.observability.tracer import Tracer
    from repro.overload.admission import AdmissionController
    from repro.resilience.breaker import BreakerRegistry
    from repro.resilience.budget import RetryBudget
    from repro.resilience.deadline import Deadline
    from repro.resilience.events import ResilienceEvents
    from repro.resilience.policy import RetryPolicy
    from repro.rio.cybernode import Cybernode
    from repro.sensors.environment import PhysicalEnvironment
    from repro.sensors.probe import BaseProbe
    from repro.sorcer.accessor import ServiceAccessor
    from repro.sorcer.context import ServiceContext
    from repro.sorcer.exerter import Exerter
    from repro.sorcer.exertion import Exertion
    from repro.sorcer.provider import ServiceProvider

    call, gen = recorder.wrap_call, recorder.wrap_generator
    plan = (
        (Network, "send", "net.send", call),
        # The call site's binding, not wire.estimate_size itself: the
        # estimator recurses through its own module global, and only the
        # outermost call per message is a span.
        (net_message, "estimate_size", "net.wire_size", call),
        (RpcEndpoint, "call", "net.rpc", call),
        (LookupService, "lookup", "jini.lookup", call),
        (LookupService, "register", "jini.register", call),
        (LookupService, "renew_lease", "jini.renew", call),
        (ServiceAccessor, "find_items", "sorcer.accessor", gen),
        (Exerter, "exert", "sorcer.exert", gen),
        (ServiceProvider, "service", "sorcer.provider_service", gen),
        (ServiceContext, "get_value", "sorcer.context", call),
        (ServiceContext, "put_value", "sorcer.context", call),
        (ServiceContext, "wire_size", "sorcer.context", call),
        (Exertion, "copy", "sorcer.context", call),
        (AdmissionController, "acquire", "overload.admit", gen),
        (AdmissionController, "release", "overload.admit", call),
        (BaseProbe, "read", "sensors.read", gen),
        (PhysicalEnvironment, "sample", "sensors.sample", call),
        (PhysicalEnvironment, "sample_many", "sensors.sample_many", call),
        (Expression, "__init__", "expr.compile", call),
        (Expression, "evaluate", "expr.eval", call),
        (Tracer, "start_span", "observability.span", call),
        (Span, "end", "observability.span", call),
        (Span, "annotate", "observability.span", call),
        (Counter, "inc", "observability.metric", call),
        (Gauge, "set", "observability.metric", call),
        (Gauge, "inc", "observability.metric", call),
        (Gauge, "dec", "observability.metric", call),
        (Histogram, "observe", "observability.metric", call),
        (HealthMonitor, "tick", "observability.health_tick", call),
        (BreakerRegistry, "try_acquire", "resilience.breaker", call),
        (BreakerRegistry, "record_success", "resilience.breaker", call),
        (BreakerRegistry, "record_failure", "resilience.breaker", call),
        (RetryBudget, "deposit", "resilience.budget", call),
        (RetryBudget, "try_spend", "resilience.budget", call),
        (RetryPolicy, "delay_before_retry", "resilience.policy", call),
        (Deadline, "expired", "resilience.deadline", call),
        (Deadline, "clamp", "resilience.deadline", call),
        (Deadline, "check", "resilience.deadline", call),
        (ResilienceEvents, "emit", "resilience.events", call),
        (Cybernode, "ping", "rio.heartbeat", call),
        (Cybernode, "status", "rio.heartbeat", call),
    )
    for owner, attribute, name, wrap in plan:
        setattr(owner, attribute, wrap(name, getattr(owner, attribute)))

    add_operation = ServiceProvider.add_operation

    @functools.wraps(add_operation)
    def traced_add_operation(self, selector, fn):
        add_operation(self, selector,
                      recorder.wrap_either(_operation_span(self), fn))

    ServiceProvider.add_operation = traced_add_operation
