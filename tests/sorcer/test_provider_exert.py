"""Provider dispatch + federated method invocation (exert)."""

import pytest

from repro.net import Host
from repro.observability import metrics_registry
from repro.overload import AdmissionController
from repro.sorcer import (
    Exerter,
    ExertionStatus,
    ServiceContext,
    ServiceProvider,
    Signature,
    Task,
    Tasker,
)


class AdderProvider(Tasker):
    SERVICE_TYPES = ("Arithmetic",)

    def __init__(self, host, name="Adder", **kw):
        super().__init__(host, name, **kw)
        self.add_operation("add", self._add)
        self.add_operation("slow_add", self._slow_add)
        self.add_operation("explode", self._explode)

    def _add(self, ctx):
        return ctx.get_value("arg/a") + ctx.get_value("arg/b")

    def _slow_add(self, ctx):
        yield self.env.timeout(1.0)
        return ctx.get_value("arg/a") + ctx.get_value("arg/b")

    def _explode(self, ctx):
        raise RuntimeError("op failure")


def add_task(name="t", selector="add", a=2, b=3):
    ctx = ServiceContext()
    ctx.put_in_value("arg/a", a)
    ctx.put_in_value("arg/b", b)
    return Task(name, Signature("Arithmetic", selector), ctx)


def start_provider(net, host_name="provider-host", name="Adder"):
    host = Host(net, host_name)
    provider = AdderProvider(host, name)
    provider.start()
    return host, provider


def test_exert_task_end_to_end(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)  # allow join
        result = yield env.process(exerter.exert(add_task()))
        return result

    p = env.process(proc())
    result = env.run(until=p)
    assert result.status is ExertionStatus.DONE
    assert result.get_return_value() == 5


def test_exert_records_trace(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(add_task()))
        return result

    result = env.run(until=env.process(proc()))
    assert len(result.trace) == 1
    rec = result.trace[0]
    assert rec.provider == "Adder"
    assert rec.host == "provider-host"
    assert rec.finished_at >= rec.started_at


def test_exert_does_not_mutate_requestor_copy(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)
    original = add_task()

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(original))
        return result

    result = env.run(until=env.process(proc()))
    assert original.status is ExertionStatus.INITIAL
    assert "result/value" not in original.context
    assert result is not original


def test_generator_operation_takes_time(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        started = env.now
        result = yield env.process(exerter.exert(add_task(selector="slow_add")))
        return result, env.now - started

    result, elapsed = env.run(until=env.process(proc()))
    assert result.get_return_value() == 5
    assert elapsed >= 1.0


def test_op_exception_marks_exertion_failed(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(add_task(selector="explode")))
        return result

    result = env.run(until=env.process(proc()))
    assert result.status is ExertionStatus.FAILED
    assert "op failure" in result.exceptions[0]


def test_unknown_selector_fails(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(add_task(selector="divide")))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
    assert "divide" in result.exceptions[0]


def test_no_provider_fails_after_wait(grid):
    env, net, lus = grid
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)
    task = add_task()
    task.control.provider_wait = 2.0

    def proc():
        result = yield env.process(exerter.exert(task))
        return result, env.now

    result, when = env.run(until=env.process(proc()))
    assert result.is_failed
    assert "no provider" in result.exceptions[0]
    assert when >= 2.0


def test_failover_to_equivalent_provider(grid):
    """Paper §V.A: unavailable service -> request passed to equivalent one."""
    env, net, lus = grid
    h1, p1 = start_provider(net, "ph-1", "Adder-1")
    h2, p2 = start_provider(net, "ph-2", "Adder-2")
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        h1.fail()  # first candidate silently dead, lease not yet expired
        task = add_task()
        task.control.invocation_timeout = 1.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(proc()))
    assert result.status is ExertionStatus.DONE
    assert result.get_return_value() == 5
    # Executed by whichever provider was alive.
    assert result.trace[0].provider in ("Adder-1", "Adder-2")
    assert result.trace[0].host == "ph-2"


def test_exert_by_provider_name(grid):
    env, net, lus = grid
    start_provider(net, "ph-1", "Adder-1")
    start_provider(net, "ph-2", "Adder-2")
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        ctx = ServiceContext()
        ctx.put_in_value("arg/a", 1)
        ctx.put_in_value("arg/b", 1)
        task = Task("t", Signature("Arithmetic", "add", provider_name="Adder-2"), ctx)
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(proc()))
    assert result.trace[0].provider == "Adder-2"


def test_provider_stats_count_served(grid):
    env, net, lus = grid
    host, provider = start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        for _ in range(3):
            yield env.process(exerter.exert(add_task()))
        yield env.process(exerter.exert(add_task(selector="explode")))

    env.run(until=env.process(proc()))
    registry = metrics_registry(net)
    assert registry.value("provider.served", provider=provider.name) == 3
    assert registry.value("provider.failed", provider=provider.name) == 1


def admit_one_at_a_time(net, provider):
    """One execution slot and no queue: a leaked slot sheds the next
    exertion as queue-full."""
    provider.admission = AdmissionController(
        net.env, provider.name, metrics_registry(net),
        max_inflight=1, max_queue=0)


def test_failed_operation_returns_its_admission_slot(grid):
    env, net, lus = grid
    _, provider = start_provider(net)
    admit_one_at_a_time(net, provider)
    exerter = Exerter(Host(net, "requestor"))

    def proc():
        yield env.timeout(2.0)
        failed = yield env.process(exerter.exert(add_task(selector="explode")))
        inflight = provider.admission.inflight
        result = yield env.process(exerter.exert(add_task()))
        return failed, inflight, result

    failed, inflight, result = env.run(until=env.process(proc()))
    assert failed.is_failed and "op failure" in failed.exceptions[0]
    assert inflight == 0
    assert result.status is ExertionStatus.DONE
    assert result.get_return_value() == 5


def test_exert_span_closed_when_a_failure_escapes_a_yield(grid):
    # An unmodelled failure thrown in while exert() awaits a hop must not
    # leave its "exert:*" span open: the `with` ends it as "error".
    env, net, lus = grid
    exerter = Exerter(Host(net, "requestor"))
    gen = exerter.exert(add_task())
    next(gen)  # suspended at the first yield; the span is open
    [span] = exerter.tracer.find(kind="exert")
    assert span.ended_at is None
    with pytest.raises(KeyError):
        gen.throw(KeyError("unmodelled"))
    assert (span.status, span.ended_at) == ("error", env.now)


def test_serve_span_closed_when_a_failure_escapes_a_yield(grid):
    env, net, lus = grid
    provider = AdderProvider(Host(net, "provider-host"), max_concurrency=1)
    gen = provider.service(add_task())
    next(gen)  # suspended on the concurrency gate; the span is open
    [span] = provider.tracer.find(kind="serve")
    assert span.ended_at is None
    with pytest.raises(KeyError):
        gen.throw(KeyError("unmodelled"))
    assert (span.status, span.ended_at) == ("error", env.now)
    assert provider._gate.users == []  # the grant went back too


def test_wrong_service_type_rejected(grid):
    env, net, lus = grid
    start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        task = Task("t", Signature("Servicer", "add"), ServiceContext())
        task.control.provider_wait = 1.0
        result = yield env.process(exerter.exert(task))
        return result

    # Providers all implement Servicer so it *will* find one, then the
    # provider itself accepts (Servicer in service_types) but lacks data.
    result = env.run(until=env.process(proc()))
    assert result.is_failed  # no arg/a in context -> ContextError captured


def test_duplicate_operation_rejected(grid):
    env, net, lus = grid
    host = Host(net, "ph")
    provider = AdderProvider(host, "A")
    with pytest.raises(ValueError):
        provider.add_operation("add", lambda ctx: 0)


def test_destroy_leaves_network(grid):
    env, net, lus = grid
    host, provider = start_provider(net)
    requestor = Host(net, "requestor")
    exerter = Exerter(requestor)

    def proc():
        yield env.timeout(2.0)
        yield env.process(provider.destroy())
        task = add_task()
        task.control.provider_wait = 1.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
