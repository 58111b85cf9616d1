"""Jobber: composite exertion execution with strategies and pipes."""

import pytest

from repro.net import Host
from repro.sorcer import (
    Exerter,
    ExertionStatus,
    Job,
    Jobber,
    ServiceContext,
    Signature,
    Strategy,
    Task,
    Tasker,
)


class MathProvider(Tasker):
    SERVICE_TYPES = ("Arithmetic",)

    def __init__(self, host, name="Math", delay=0.5, **kw):
        super().__init__(host, name, **kw)
        self.delay = delay
        self.add_operation("add", self._add)
        self.add_operation("double", self._double)
        self.add_operation("fail", self._fail)

    def _add(self, ctx):
        yield self.env.timeout(self.delay)
        return ctx.get_value("arg/a") + ctx.get_value("arg/b")

    def _double(self, ctx):
        yield self.env.timeout(self.delay)
        return 2 * ctx.get_value("arg/x")

    def _fail(self, ctx):
        raise RuntimeError("deliberate")


def task(name, selector, **args):
    ctx = ServiceContext()
    for key, value in args.items():
        ctx.put_in_value(f"arg/{key}", value)
    return Task(name, Signature("Arithmetic", selector), ctx)


@pytest.fixture
def jobber_grid(grid):
    env, net, lus = grid
    Jobber(Host(net, "jobber-host")).start()
    MathProvider(Host(net, "math-host")).start()
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)
    return env, net, exerter


def run_job(env, exerter, job, settle=2.0):
    def proc():
        yield env.timeout(settle)
        result = yield env.process(exerter.exert(job))
        return result

    return env.run(until=env.process(proc()))


def test_sequential_job_collects_results(jobber_grid):
    env, net, exerter = jobber_grid
    job = Job("j", [task("t1", "add", a=1, b=2), task("t2", "add", a=10, b=20)])
    result = run_job(env, exerter, job)
    assert result.status is ExertionStatus.DONE
    assert result.context.get_value("t1/result/value") == 3
    assert result.context.get_value("t2/result/value") == 30


def test_parallel_job_overlaps_execution(jobber_grid):
    env, net, exerter = jobber_grid
    seq = Job("seq", [task(f"t{i}", "add", a=i, b=i) for i in range(4)])
    par = Job("par", [task(f"t{i}", "add", a=i, b=i) for i in range(4)],
              strategy=Strategy.PARALLEL)

    def proc():
        yield env.timeout(2.0)
        t0 = env.now
        r1 = yield env.process(exerter.exert(seq))
        seq_elapsed = env.now - t0
        t1 = env.now
        r2 = yield env.process(exerter.exert(par))
        par_elapsed = env.now - t1
        return r1, seq_elapsed, r2, par_elapsed

    r1, seq_elapsed, r2, par_elapsed = env.run(until=env.process(proc()))
    assert r1.status is ExertionStatus.DONE
    assert r2.status is ExertionStatus.DONE
    # 4 tasks x 0.5s each: sequential ~2s, parallel ~0.5s.
    assert seq_elapsed > 3 * par_elapsed


def test_component_failure_fails_job_and_skips_rest(jobber_grid):
    env, net, exerter = jobber_grid
    j = Job("j", [task("ok", "add", a=1, b=1), task("bad", "fail"),
                  task("never", "add", a=9, b=9)])
    result = run_job(env, exerter, j)
    assert result.is_failed
    assert result.component("ok").is_done
    assert result.component("bad").is_failed
    assert result.component("never").is_failed
    assert "skipped" in result.component("never").exceptions[0]


def test_nested_job(jobber_grid):
    env, net, exerter = jobber_grid
    inner = Job("inner", [task("i1", "add", a=1, b=1)])
    outer = Job("outer", [inner, task("o1", "add", a=2, b=2)])
    result = run_job(env, exerter, outer)
    assert result.status is ExertionStatus.DONE
    inner_result = result.component("inner")
    assert inner_result.is_done
    assert inner_result.context.get_value("i1/result/value") == 2
    assert result.context.get_value("o1/result/value") == 4


def test_job_without_jobber_fails(grid):
    env, net, lus = grid
    MathProvider(Host(net, "math-host")).start()
    exerter = Exerter(Host(net, "requestor"))
    job = Job("j", [task("t1", "add", a=1, b=2)])
    job.control.provider_wait = 1.0

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
    assert "Jobber" in result.exceptions[0]


def test_empty_job_is_done(jobber_grid):
    env, net, exerter = jobber_grid
    result = run_job(env, exerter, Job("empty"))
    assert result.status is ExertionStatus.DONE
