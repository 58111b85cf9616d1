"""Exertion space + Spacer + SpaceWorker (PULL dispatch, E-SPACE substrate)."""

import pytest

from repro.net import Host, rpc_endpoint
from repro.jini import Name, TransactionManager
from repro.sorcer import (
    Access,
    EnvelopeState,
    Exerter,
    ExertionStatus,
    ExertionSpace,
    Job,
    ServiceContext,
    Signature,
    SpaceTemplate,
    SpaceWorker,
    Spacer,
    Task,
    Tasker,
    join_service,
)


class MathProvider(Tasker):
    SERVICE_TYPES = ("Arithmetic",)

    def __init__(self, host, name="Math", delay=0.2, **kw):
        super().__init__(host, name, **kw)
        self.delay = delay
        self.add_operation("add", self._add)

    def _add(self, ctx):
        yield self.env.timeout(self.delay)
        return ctx.get_value("arg/a") + ctx.get_value("arg/b")


def add_task(name, a, b):
    ctx = ServiceContext()
    ctx.put_in_value("arg/a", a)
    ctx.put_in_value("arg/b", b)
    return Task(name, Signature("Arithmetic", "add"), ctx)


def make_space(net, host_name="space-host"):
    host = Host(net, host_name)
    space = ExertionSpace(host)
    join_service(host, space.ref, net.ids.uuid(), (Name("Exertion Space"),))
    return host, space


def test_write_then_take(env, net):
    sh, space = make_space(net)

    def proc():
        eid = space.write(add_task("t", 1, 2))
        envelope = yield env.process(
            space.take(SpaceTemplate(service_type="Arithmetic")))
        return eid, envelope

    eid, envelope = env.run(until=env.process(proc()))
    assert envelope.envelope_id == eid
    assert envelope.state is EnvelopeState.TAKEN


def test_take_blocks_until_write(env, net):
    sh, space = make_space(net)

    def taker():
        envelope = yield env.process(space.take(SpaceTemplate(), timeout=50.0))
        return env.now, envelope

    def writer():
        yield env.timeout(5.0)
        space.write(add_task("t", 1, 2))

    p = env.process(taker())
    env.process(writer())
    when, envelope = env.run(until=p)
    assert when >= 5.0
    assert envelope is not None


def test_take_timeout_returns_none(env, net):
    sh, space = make_space(net)

    def proc():
        envelope = yield env.process(space.take(SpaceTemplate(), timeout=1.0))
        return envelope, env.now

    envelope, when = env.run(until=env.process(proc()))
    assert envelope is None
    assert when == pytest.approx(1.0)


def test_template_filters_by_selector(env, net):
    sh, space = make_space(net)

    def proc():
        space.write(add_task("t", 1, 2))
        miss = yield env.process(
            space.take(SpaceTemplate(selector="multiply"), timeout=0.5))
        hit = yield env.process(
            space.take(SpaceTemplate(selector="add"), timeout=0.5))
        return miss, hit

    miss, hit = env.run(until=env.process(proc()))
    assert miss is None
    assert hit is not None


def test_result_roundtrip(env, net):
    sh, space = make_space(net)

    def proc():
        eid = space.write(add_task("t", 1, 2))
        envelope = yield env.process(space.take(SpaceTemplate()))
        done = envelope.task
        done.context.set_return_value(3)
        done.status = ExertionStatus.DONE
        space.write_result(eid, done)
        result = yield env.process(space.take_result(eid))
        return result

    result = env.run(until=env.process(proc()))
    assert result.get_return_value() == 3


def test_txn_abort_restores_envelope(env, net):
    sh, space = make_space(net)
    tm = TransactionManager(Host(net, "txn-host"))
    client = rpc_endpoint(Host(net, "client"))

    def proc():
        space.write(add_task("t", 1, 2))
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, space.ref)
        envelope = yield env.process(
            space.take(SpaceTemplate(), created.txn_id))
        assert envelope is not None
        assert space.pending_count() == 0
        yield client.call(tm.ref, "abort", created.txn_id)
        yield env.timeout(1.0)
        return space.pending_count()

    assert env.run(until=env.process(proc())) == 1


def test_txn_commit_consumes_envelope(env, net):
    sh, space = make_space(net)
    tm = TransactionManager(Host(net, "txn-host"))
    client = rpc_endpoint(Host(net, "client"))

    def proc():
        space.write(add_task("t", 1, 2))
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, space.ref)
        yield env.process(space.take(SpaceTemplate(), created.txn_id))
        yield client.call(tm.ref, "commit", created.txn_id)
        yield env.timeout(1.0)
        return space.pending_count()

    assert env.run(until=env.process(proc())) == 0


def test_txn_lease_expiry_restores_unfinished_take(env, net):
    """A worker that takes and dies loses its txn; the envelope returns."""
    sh, space = make_space(net)
    tm = TransactionManager(Host(net, "txn-host"))
    client = rpc_endpoint(Host(net, "client"))

    def proc():
        space.write(add_task("t", 1, 2))
        created = yield client.call(tm.ref, "create", 2.0)  # short lease
        yield client.call(tm.ref, "join", created.txn_id, space.ref)
        yield env.process(space.take(SpaceTemplate(), created.txn_id))
        # ... worker crashes here; no commit ever happens.
        yield env.timeout(10.0)
        return space.pending_count()

    assert env.run(until=env.process(proc())) == 1


def spacer_stack(env, net, workers=1, use_txn=False):
    """LUS + spacer + space + N worker-backed math providers."""
    from repro.jini import LookupService
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    sh, space = make_space(net)
    Spacer(Host(net, "spacer-host"), result_timeout=30.0).start()
    tm_ref = None
    if use_txn:
        tm = TransactionManager(Host(net, "txn-host"))
        tm_ref = tm.ref
    worker_objs = []
    for i in range(workers):
        host = Host(net, f"worker-{i}")
        provider = MathProvider(host, f"Math-{i}")
        # Short take-transactions: a crashed worker's envelopes come back
        # well before the spacer's result timeout.
        worker = SpaceWorker(provider, space.ref, txn_manager_ref=tm_ref)
        worker.start()
        worker_objs.append((host, provider, worker))
    exerter = Exerter(Host(net, "requestor"))
    return space, exerter, worker_objs


def test_pull_job_through_spacer(env, net):
    space, exerter, workers = spacer_stack(env, net, workers=2)
    job = Job("j", [add_task("t1", 1, 2), add_task("t2", 10, 20)],
              access=Access.PULL)
    job.control.invocation_timeout = 60.0

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    result = env.run(until=env.process(proc()))
    assert result.status is ExertionStatus.DONE
    assert result.context.get_value("t1/result/value") == 3
    assert result.context.get_value("t2/result/value") == 30


def test_pull_job_with_transactional_workers(env, net):
    space, exerter, workers = spacer_stack(env, net, workers=2, use_txn=True)
    job = Job("j", [add_task(f"t{i}", i, i) for i in range(4)],
              access=Access.PULL)
    job.control.invocation_timeout = 90.0

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    result = env.run(until=env.process(proc()))
    assert result.status is ExertionStatus.DONE
    for i in range(4):
        assert result.context.get_value(f"t{i}/result/value") == 2 * i


def test_worker_crash_recovery_via_txn(env, net):
    """Kill one worker mid-stream; the other finishes every task."""
    space, exerter, workers = spacer_stack(env, net, workers=2, use_txn=True)
    job = Job("j", [add_task(f"t{i}", i, 1) for i in range(6)],
              access=Access.PULL)
    job.control.invocation_timeout = 200.0

    def killer():
        yield env.timeout(2.5)
        workers[0][0].fail()  # worker-0 host dies

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    env.process(killer())
    result = env.run(until=env.process(proc()))
    assert result.status is ExertionStatus.DONE
    for i in range(6):
        assert result.context.get_value(f"t{i}/result/value") == i + 1


@pytest.mark.parametrize("parallel", [False, True])
def test_pull_job_fails_a_nested_job_like_any_component(env, net, parallel):
    """The space carries tasks only; a nested job fails as a component —
    sequentially it stops the rest, in parallel the others still run."""
    from repro.sorcer import Strategy
    space, exerter, workers = spacer_stack(env, net, workers=1)
    job = Job("outer", [add_task("before", 1, 2),
                        Job("inner", [add_task("i1", 1, 1)]),
                        add_task("after", 3, 4)], access=Access.PULL,
              strategy=Strategy.PARALLEL if parallel else Strategy.SEQUENTIAL)
    job.control.invocation_timeout = 60.0

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
    assert result.component("before").is_done
    assert result.component("inner").exceptions == [
        "space-based dispatch supports task components only"]
    if parallel:
        assert result.component("after").is_done
        assert result.exceptions == ["1 component exertion(s) failed: inner"]
    else:
        assert result.component("after").exceptions == [
            "skipped: upstream 'inner' failed"]
