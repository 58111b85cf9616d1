"""Flight-recorder tests — aggregation fidelity and the side-channel
contract (DESIGN §12).

Wall-clock *values* are machine noise, so every aggregation test injects
a fake clock that advances a fixed step per read: the recorder's sums,
counts and shares become exact arithmetic. The determinism tests then
pin the contract that matters in production — a run's simulation-side
output is byte-identical with and without a recorder attached, under
tie-break shuffling too.
"""

import numpy as np
import pytest

from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.observability import (FlightRecorder, MetricsRegistry,
                                 profile_run, service_times, status_json)
from repro.observability.profile import SAMPLE_EVERY
from repro.scenarios import build_paper_lab
from repro.sim import Environment


class FakeClock:
    """Advances ``step`` seconds per read — wall time as arithmetic."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def ticker_env(rounds: int = 50, procs: int = 2, **env_kwargs) -> Environment:
    """An Environment with ``procs`` named tickers of ``rounds`` timeouts."""
    env = Environment(**env_kwargs)

    def tick():
        for _ in range(rounds):
            yield env.timeout(1.0)

    for i in range(procs):
        env.process(tick(), name=f"tick-{i}")
    return env


def events_of(env: Environment) -> int:
    """Exact events processed so far: every event is one scheduler pop."""
    return env.scheduler_stats()["pops"]


# -- lifecycle -----------------------------------------------------------------


def test_hooks_raise_until_attached():
    recorder = FlightRecorder()
    with pytest.raises(RuntimeError):
        recorder.enter(None)


def test_one_profiler_per_environment():
    env = ticker_env()
    first = FlightRecorder().attach(env)
    with pytest.raises(ValueError):
        FlightRecorder().attach(env)
    first.detach()
    assert env._profiler is None  # kernel back on the fast path


def test_one_environment_per_recorder():
    recorder = FlightRecorder().attach(ticker_env())
    with pytest.raises(ValueError):
        recorder.attach(ticker_env())


def test_profile_run_detaches_on_exit():
    env = ticker_env()
    with profile_run(env) as recorder:
        env.run(until=10.0)
        assert recorder.attached
    assert not recorder.attached
    assert env._profiler is None
    assert recorder.events == events_of(env)


# -- recording -----------------------------------------------------------------


def test_throughput_samples_ride_along():
    env = ticker_env(rounds=SAMPLE_EVERY + 100, procs=2)
    recorder = FlightRecorder(clock=FakeClock()).attach(env)
    env.run()
    recorder.detach()
    samples = recorder.report()["throughput"]
    assert len(samples) >= 2
    events = [s["events"] for s in samples]
    assert events == sorted(events)                     # monotone
    assert all(n % SAMPLE_EVERY == 0 for n in events)   # on the grid
    assert all(s["sim_t"] <= env.now for s in samples)


def test_deleted_knobs_are_rejected():
    with pytest.raises(TypeError):
        FlightRecorder(period=32)
    with pytest.raises(ValueError, match="ISSUE 13"):
        FlightRecorder(detail=False)


def test_detail_mode_counts_are_exact_with_kernel_row():
    clock = FakeClock(step=0.25)
    env = ticker_env(rounds=40, procs=2)
    recorder = FlightRecorder(clock=clock, detail=True).attach(env)
    env.run()
    recorder.detach()
    report = recorder.report()
    events = events_of(env)
    assert "mode" not in report
    assert report["events"] == events
    rows = {(r["event_type"], r["target"]): r for r in report["attribution"]}
    kernel = rows.pop(("kernel", "scheduler+dispatch"))
    assert kernel["count"] == events
    # Exact per-row counts: the non-kernel rows partition the events.
    assert sum(r["count"] for r in rows.values()) == events
    assert report["kernel_share"] + report["callback_share"] == \
        pytest.approx(report["attributed_share"], abs=0.001)


def test_callback_only_events_are_labelled_by_their_name():
    """A message delivery is an event with a callback, not a process; its
    row keeps the name the process had. The RPC request is served inside
    its delivery, so the serve is charged to the delivery's row (it had a
    row of its own, ``process:rpc:server.append``, while a serve hop ran
    it)."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1),
                  latency=FixedLatency(0.001))
    server, client = Host(net, "server"), Host(net, "client")
    ref = rpc_endpoint(server).export([], "list", methods=("append",))
    recorder = FlightRecorder(clock=FakeClock()).attach(env)
    rpc_endpoint(client).call(ref, "append", 1)
    env.run()
    recorder.detach()
    targets = {r["target"]: r["count"]
               for r in recorder.report()["attribution"]}
    assert targets["process:deliver:rpc-request"] == 1
    assert "process:rpc:server.append" not in targets
    assert targets["process:deliver:rpc-reply"] == 1


def test_report_truncation_sums_the_tail():
    env = ticker_env(rounds=10, procs=6)
    recorder = FlightRecorder(clock=FakeClock()).attach(env)
    env.run()
    recorder.detach()
    full = recorder.report()
    clipped = recorder.report(top=3)
    assert len(clipped["attribution"]) == 3
    tail = clipped["truncated"]
    assert tail["rows"] == len(full["attribution"]) - 3
    assert tail["count"] == (sum(r["count"] for r in full["attribution"])
                             - sum(r["count"] for r in
                                   clipped["attribution"]))


def test_reattach_accumulates_without_double_counting():
    clock = FakeClock()
    env = ticker_env(rounds=100, procs=1)
    recorder = FlightRecorder(clock=clock).attach(env)
    env.run(until=20.0)
    recorder.detach()
    first_events = recorder.events
    first_wall = recorder.report()["wall_s"]
    recorder.attach(env)
    env.run(until=50.0)
    recorder.detach()
    report = recorder.report()
    assert first_events > 0
    assert report["events"] == events_of(env)
    assert report["wall_s"] > first_wall
    # Shares still sum to <= 1: nothing was charged twice.
    assert report["attributed_share"] <= 1.0


# -- the observed path ---------------------------------------------------------


def test_recorder_keeps_the_observed_path_exact():
    bare = ticker_env(rounds=10, procs=2)
    bare.run()
    env = ticker_env(rounds=10, procs=2)
    recorder = FlightRecorder(clock=FakeClock()).attach(env)
    env.run()
    recorder.detach()
    report = recorder.report()
    assert report["events"] == events_of(env) == events_of(bare)
    rows = {(r["event_type"], r["target"]): r for r in report["attribution"]}
    assert rows[("kernel", "scheduler+dispatch")]["count"] == events_of(env)


def test_raising_callback_still_exits_the_recorder():
    env = Environment()
    boom = env.event()
    boom.callbacks.append(lambda ev: 1 / 0)
    boom.succeed()
    recorder = FlightRecorder(clock=FakeClock()).attach(env)
    with pytest.raises(ZeroDivisionError):
        env.step()
    recorder.detach()
    report = recorder.report()
    assert report["events"] == 1
    assert sum(r["count"] for r in report["attribution"]
               if r["event_type"] != "kernel") == 1


# -- service-time aggregation --------------------------------------------------


def test_service_times_summarizes_histograms():
    registry = MetricsRegistry()
    hist = registry.histogram("provider.service_time", provider="Neem")
    for value in (0.002, 0.004, 0.008):
        hist.observe(value)
    registry.histogram("rpc.rtt", host="h1").observe(0.003)
    registry.counter("provider.service_time_ignored").inc()
    out = service_times(registry)
    assert set(out) == {"providers", "rpc"}
    neem = out["providers"]["provider=Neem"]
    assert neem["count"] == 3
    assert neem["p50"] <= neem["p95"]
    assert out["rpc"]["host=h1"]["count"] == 1


# -- the side-channel contract (DESIGN §12) ------------------------------------


def _status_after_run(attached, seed=2009, until=30.0):
    lab = build_paper_lab(seed=seed)
    lab.settle(6.0)
    recorder = FlightRecorder().attach(lab.env) if attached else None
    lab.env.run(until=until)
    if recorder is not None:
        recorder.detach()
    return status_json(lab.health.snapshot())


def test_recorder_never_changes_simulation_output():
    assert _status_after_run(False) == _status_after_run(True)


def test_recorder_is_shuffle_invariant(shuffle_seed):
    """Tie-break shuffling exercises different same-time event orders;
    the recorder must stay a pure observer under every order."""
    assert _status_after_run(False) == _status_after_run(True)
