"""Flight recorder — a wall-clock profiler for the simulation kernel.

The ROADMAP's scale arc can prove *that* the kernel is fast (E-KERNEL) but
not *where* wall-clock time goes inside a run. This module answers that:
a :class:`FlightRecorder` attaches to an :class:`~repro.sim.Environment`
through the kernel's ``_profiler`` hook and stamps ``perf_counter``
around every event's callbacks, aggregating

* **per-event-type / per-callback attribution** — each step is charged to
  a ``(event type, target)`` pair, where the target is the process a
  ``Process._resume`` callback belongs to (``process:health-monitor``),
  the name a callback-only event carries (``process:deliver:rpc-reply``),
  the condition instance for fan-in events, or the bare event type;
* **rolling throughput** — an (elapsed wall, sim time, events) sample
  every ``SAMPLE_EVERY`` events, so a long run yields an events/sec
  trajectory instead of one end-to-end average;
* **scheduler internals** — the pending-event heap's operation totals
  (pushes, pops, tombstone cancels) and pending count, read from
  :meth:`~repro.sim.Environment.scheduler_stats` at report time;
* **service-time aggregation** — sim-side per-provider service-time and
  per-host RPC round-trip summaries folded out of the metrics registry,
  so one report ties wall-clock hot spots to the simulated services that
  caused them.

Recording is exact, not sampled: two stamps per event split callback
time from kernel dispatch time (reported as an explicit
``kernel/scheduler+dispatch`` row) with exact per-row event counts. That
costs 15-25% on event-dense workloads, which is fine for its users: the
explicit ``repro profile`` CLI run and the E-E2E traced pass.

Determinism contract (DESIGN §12): profiling data is a **side channel**.
The recorder only ever *reads* simulation state — it never schedules,
never draws randomness, never mutates an event — so event order, metrics,
traces, ``status --json`` bytes and chaos verdicts are identical with the
recorder attached or not. That invariant is pinned by
``tests/observability/test_profile.py`` and the E-PROF benchmark. The
wall-clock values themselves are of course machine-dependent; they never
feed back into the simulation.

The hook bodies are generated as closures at attach time: the kernel
calls them once per event, and closure-cell state is measurably cheaper
than attribute traffic on ``self`` at that call rate.
"""
# repro: allow-file[DET001] - the flight recorder *is* the wall clock probe: it measures the simulator itself and stays out of sim state

from __future__ import annotations

import time
from typing import Callable, Optional

from ..sim.core import Process

__all__ = ["FlightRecorder", "profile_run", "service_times"]

#: Rolling-throughput granularity: one sample every this many events.
SAMPLE_EVERY = 4096


class FlightRecorder:
    """Aggregating wall-clock profiler for one simulation run.

    ``clock`` is injectable (tests pass a fake counter); it must be a
    zero-argument callable returning monotonically increasing seconds.
    ``detail`` is vestigial: exact two-stamp bracketing is the only
    behaviour, and the keyword survives only because the frozen E-E2E
    harness passes ``detail=True``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 detail: bool = True):
        if detail is not True:
            raise ValueError(
                "detail=True is the only recording mode (ISSUE 13 deleted "
                "sampled recording)")
        self._clock = clock
        self.env = None
        #: (event class, target) -> [count, wall_seconds]; target is a
        #: process or event name, a pre-formatted 1-tuple (cold path) or None.
        self._agg: dict[tuple, list] = {}
        #: Rolling throughput samples: (elapsed_wall_s, sim_t, events).
        self._throughput: list[tuple] = []
        self._events = 0
        self._attached_at: Optional[float] = None
        self._run_wall = 0.0       # wall seconds covered while attached
        self._kernel_wall = 0.0    # dispatch between callbacks
        # Kernel hook slots; real closures are installed by attach().
        self.enter = self._not_attached
        self.exit = self._not_attached
        self._sync = lambda: None

    @staticmethod
    def _not_attached(event) -> None:
        raise RuntimeError("recorder is not attached (use attach()/"
                           "profile_run)")

    # -- lifecycle -------------------------------------------------------------

    def attach(self, env) -> "FlightRecorder":
        """Start recording ``env``; returns self (context-manager style is
        :func:`profile_run`). Re-attaching to another env is an error —
        one recorder aggregates one run."""
        if self.env is not None and self.env is not env:
            raise ValueError("recorder is already attached to another env")
        if env._profiler is not None and env._profiler is not self:
            raise ValueError("environment already has a profiler attached")
        self.env = env
        self._attached_at = self._clock()
        self._install_hooks(env)
        env._profiler = self
        return self

    def _install_hooks(self, env) -> None:
        """Build ``enter``/``exit`` as closures over local cells.

        They run once per kernel event; keeping the mutable counters in
        closure cells instead of instance attributes is what keeps the
        recorder's own cost down. They start from the instance totals (so
        re-attaching never double-counts) and ``_sync`` publishes them
        back for report()/detach().
        """
        clock = self._clock
        agg = self._agg
        agg_get = agg.get
        throughput_append = self._throughput.append
        attached_at = self._attached_at
        events = self._events
        kernel_wall = self._kernel_wall
        last_mark = attached_at
        label = None
        t0 = attached_at

        def enter(event):
            nonlocal label, t0, kernel_wall
            callbacks = event.callbacks
            if callbacks:
                owner = getattr(callbacks[0], "__self__", None)
                if type(owner) is Process:
                    label = (event.__class__, owner.name)
                else:
                    # No process resumes on it: an event that carries a
                    # name (a message delivery, which also serves an RPC
                    # request, or a finished process someone watches) is
                    # that row.
                    name = getattr(event, "name", None)
                    label = (event.__class__,
                             name if name is not None
                             else (_cold_target(callbacks[0], owner),))
            else:
                label = (event.__class__, None)
            now = clock()
            # Since the previous stamp the kernel was popping/dispatching.
            kernel_wall += now - last_mark
            t0 = now

        def exit(event):
            nonlocal last_mark, events
            now = clock()
            dt = now - t0
            last_mark = now
            entry = agg_get(label)
            if entry is None:
                agg[label] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            events += 1
            if not events % SAMPLE_EVERY:
                throughput_append((now - attached_at, env._now, events))

        def sync():
            self._events = events
            self._kernel_wall = kernel_wall

        self.enter, self.exit = enter, exit
        self._sync = sync

    def detach(self) -> None:
        """Stop recording (idempotent); totals and samples are kept."""
        if self.env is None:
            return
        self._sync()
        self._sync = lambda: None
        self.enter = self._not_attached
        self.exit = self._not_attached
        if self._attached_at is not None:
            self._run_wall += self._clock() - self._attached_at
            self._attached_at = None
        if self.env._profiler is self:
            self.env._profiler = None

    @property
    def attached(self) -> bool:
        return self.env is not None and self.env._profiler is self

    @property
    def events(self) -> int:
        self._sync()
        return self._events

    # -- reporting -------------------------------------------------------------

    def report(self, registry=None, top: Optional[int] = None) -> dict:
        """The full flight-recorder report as plain JSON-ready data.

        ``registry`` (a :class:`MetricsRegistry`) adds the sim-side
        service-time aggregation; ``top`` truncates the attribution table
        (the dropped tail is summed into the ``truncated`` entry so shares
        always account for every measured event).
        """
        self._sync()
        wall = self._run_wall
        if self._attached_at is not None:  # still attached: live view
            wall += self._clock() - self._attached_at
        kernel_wall = self._kernel_wall
        # Callback wall is whatever was charged into the aggregation
        # table, so the hot path never maintains a separate total.
        attributed = kernel_wall + sum(
            seconds for _count, seconds in self._agg.values())
        rows = [(cls.__name__, _display_target(target), count, seconds)
                for (cls, target), (count, seconds) in self._agg.items()]
        # Dispatch is measured separately — surface it as an explicit
        # named row, not unaccounted mystery time.
        rows.append(("kernel", "scheduler+dispatch", self._events,
                     kernel_wall))
        rows.sort(key=lambda row: (-row[3], row[0], row[1]))
        truncated = None
        if top is not None and len(rows) > top:
            tail = rows[top:]
            rows = rows[:top]
            truncated = {
                "rows": len(tail),
                "count": sum(r[2] for r in tail),
                "wall_s": round(sum(r[3] for r in tail), 6),
            }
        attribution = [
            {"event_type": etype, "target": target, "count": count,
             "wall_s": round(seconds, 6),
             "share": round(seconds / wall, 4) if wall > 0 else 0.0}
            for etype, target, count, seconds in rows]
        report = {
            "events": self._events,
            "wall_s": round(wall, 6),
            "events_per_sec": (round(self._events / wall, 1)
                               if wall > 0 else 0.0),
            # Fraction of attached wall time landing in a named attribution
            # row; the remainder is time outside the event loop (attach-to-
            # first-event, run()-call framing) plus the recorder's own
            # clock reads.
            "attributed_share": (round(min(1.0, attributed / wall), 4)
                                 if wall > 0 else 0.0),
            "attribution": attribution,
            "throughput": [
                {"wall_s": round(w, 6), "sim_t": t, "events": n}
                for w, t, n in self._throughput],
            "scheduler": (self.env.scheduler_stats()
                          if self.env is not None else None),
        }
        if wall > 0:
            report["kernel_share"] = round(kernel_wall / wall, 4)
            report["callback_share"] = round(
                (attributed - kernel_wall) / wall, 4)
        if truncated is not None:
            report["truncated"] = truncated
        if registry is not None:
            report["services"] = service_times(registry)
        return report


def service_times(registry) -> dict:
    """Sim-side service-time aggregation out of the metrics registry.

    Summarizes every ``provider.service_time{provider=...}`` and
    ``rpc.rtt{host=...}`` histogram into count / mean / p50 / p95 rows —
    deterministic (pure function of registry state), so it rides along in
    the profile report without breaking the side-channel contract.
    """
    out: dict[str, dict] = {}
    for section, prefix in (("providers", "provider.service_time"),
                            ("rpc", "rpc.rtt")):
        rows = {}
        for key, metric in registry.items(prefix):
            if getattr(metric, "metric_type", None) != "histogram" \
                    or not metric.count:
                continue
            label = key[len(prefix):].strip("{}")
            rows[label or "-"] = {
                "count": metric.count,
                "mean": round(metric.mean, 6),
                "p50": _round(metric.quantile_interpolated(0.5)),
                "p95": _round(metric.quantile_interpolated(0.95)),
            }
        out[section] = rows
    return out


def _round(value):
    return round(value, 6) if value is not None else None


def _cold_target(cb, owner) -> str:
    """Display target for the rare non-``Process._resume`` callbacks
    (condition ``_check`` hooks, ``run()``'s stop hook, plain
    functions). Computed eagerly — this path fires a handful of times per
    run — and wrapped in a 1-tuple by the caller so report-time rendering
    can tell it from a process name."""
    if owner is not None:
        name = getattr(owner, "name", None)
        if name is not None:
            return f"{type(owner).__name__}:{name}"
        return type(owner).__name__
    return getattr(cb, "__qualname__", "callback")


def _display_target(target) -> str:
    if target is None:
        return "-"
    if type(target) is tuple:  # pre-formatted cold-path label
        return target[0]
    return f"process:{target}"


class profile_run:
    """Context manager: attach a recorder to ``env`` for the ``with`` body.

    >>> recorder = FlightRecorder()
    >>> with profile_run(env, recorder):
    ...     env.run(until=30.0)
    >>> recorder.report()
    """

    def __init__(self, env, recorder: Optional[FlightRecorder] = None):
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._env = env

    def __enter__(self) -> FlightRecorder:
        return self.recorder.attach(self._env)

    def __exit__(self, *exc) -> None:
        self.recorder.detach()
