"""Exerter load-spreading and provider concurrency caps."""

from repro.net import Host
from repro.sorcer import (
    Exerter,
    ServiceContext,
    Signature,
    Task,
    Tasker,
)


class SlowProvider(Tasker):
    SERVICE_TYPES = ("Slow",)

    def __init__(self, host, name, delay=0.5, **kw):
        super().__init__(host, name, **kw)
        self.delay = delay
        self.add_operation("work", self._work)

    def _work(self, ctx):
        yield self.env.timeout(self.delay)
        return self.name


def work_task(n):
    task = Task(f"w{n}", Signature("Slow", "work"), ServiceContext())
    task.control.invocation_timeout = 120.0
    return task


def test_round_robin_spreads_over_equivalent_providers(grid):
    env, net, lus = grid
    providers = [SlowProvider(Host(net, f"p-{i}"), f"Slow-{i}").start()
                 for i in range(3)]
    exerter = Exerter(Host(net, "client"))

    def proc():
        yield env.timeout(2.0)
        names = []
        for n in range(6):
            result = yield env.process(exerter.exert(work_task(n)))
            assert result.is_done
            names.append(result.get_return_value())
        return names

    names = env.run(until=env.process(proc()))
    # Each of the three providers served exactly two of six requests.
    assert sorted(set(names)) == ["Slow-0", "Slow-1", "Slow-2"]
    assert all(names.count(p) == 2 for p in set(names))


def test_concurrency_cap_serializes_requests(grid):
    env, net, lus = grid
    SlowProvider(Host(net, "p-0"), "Capped", delay=1.0,
                 max_concurrency=1).start()
    exerter = Exerter(Host(net, "client"))

    def proc():
        yield env.timeout(2.0)
        t0 = env.now
        procs = [env.process(exerter.exert(work_task(n))) for n in range(4)]
        results = yield env.all_of(procs)
        assert all(r.is_done for r in results)
        return env.now - t0

    elapsed = env.run(until=env.process(proc()))
    # Four 1s tasks through a single-slot provider: >= 4s, not ~1s.
    assert elapsed >= 4.0


def test_uncapped_provider_overlaps_requests(grid):
    env, net, lus = grid
    SlowProvider(Host(net, "p-0"), "Open", delay=1.0).start()
    exerter = Exerter(Host(net, "client"))

    def proc():
        yield env.timeout(2.0)
        t0 = env.now
        procs = [env.process(exerter.exert(work_task(n))) for n in range(4)]
        yield env.all_of(procs)
        return env.now - t0

    elapsed = env.run(until=env.process(proc()))
    assert elapsed < 2.0


def test_no_provision_without_flag(grid):
    """No provider and nothing to provision one: the task fails once the
    provider wait runs out."""
    env, net, lus = grid
    exerter = Exerter(Host(net, "client"))

    def proc():
        yield env.timeout(2.0)
        task = Task("w", Signature("Slow", "work"), ServiceContext())
        task.control.provider_wait = 1.0
        result = yield env.process(exerter.exert(task))
        return result

    result = env.run(until=env.process(proc()))
    assert result.is_failed
