"""E-SPACE — PUSH vs PULL exertion dispatch (§IV.D ablation).

A batch of T compute tasks (each costing 0.2 s of provider time) runs as a
parallel job either:

* **PUSH** — the Jobber binds every task to discovered providers directly
  (all tasks land on whatever providers match, concurrently); or
* **PULL** — the Spacer drops tasks into the exertion space and W workers
  take, execute and commit under transactions.

Reported: makespan vs worker count, plus the crash-recovery cost — one
worker dies mid-batch and the transactional takes put its stolen tasks
back for the survivors.

Expected shape: PULL makespan ~ T*cost/W (workers self-balance); PUSH with
P providers behaves like W=P but without crash recovery; killing one of
two workers roughly doubles the remaining makespan rather than losing
tasks.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, Name, TransactionManager
from repro.sorcer import (
    Access,
    Exerter,
    ExertionSpace,
    Job,
    Jobber,
    ServiceContext,
    Signature,
    SpaceWorker,
    Spacer,
    Strategy,
    Task,
    Tasker,
    join_service,
)

TASKS = 8
TASK_COST = 0.2


class Cruncher(Tasker):
    SERVICE_TYPES = ("Cruncher",)

    def __init__(self, host, name, **kw):
        # One task at a time: each provider models a single-core worker.
        super().__init__(host, name, max_concurrency=1, **kw)
        self.add_operation("crunch", self._crunch)

    def _crunch(self, ctx):
        yield self.env.timeout(TASK_COST)
        return ctx.get_value("arg/x") * 2


def batch_job(access):
    job = Job("batch", strategy=Strategy.PARALLEL, access=access)
    for index in range(TASKS):
        ctx = ServiceContext()
        ctx.put_in_value("arg/x", float(index))
        job.add(Task(f"t{index}", Signature("Cruncher", "crunch"), ctx))
    job.control.invocation_timeout = 600.0
    return job


def base_grid():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(31),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    return env, net


def check(job):
    assert job.is_done, job.exceptions
    for index in range(TASKS):
        assert job.context.get_value(f"t{index}/result/value") == 2.0 * index


def run_push(n_providers):
    env, net = base_grid()
    Jobber(Host(net, "jobber-host")).start()
    for index in range(n_providers):
        Cruncher(Host(net, f"worker-{index}"), f"Cruncher-{index}").start()
    env.run(until=6.0)
    exerter = Exerter(Host(net, "client"))
    t0 = env.now
    job = env.run(until=env.process(exerter.exert(batch_job(Access.PUSH))))
    check(job)
    return env.now - t0


def run_pull(n_workers, kill_one_at=None):
    env, net = base_grid()
    Spacer(Host(net, "spacer-host"), result_timeout=600.0).start()
    space_host = Host(net, "space-host")
    space = ExertionSpace(space_host)
    join_service(space_host, space.ref, net.ids.uuid(),
                 (Name("Exertion Space"),))
    tm = TransactionManager(Host(net, "txn-host"))
    workers = []
    for index in range(n_workers):
        host = Host(net, f"worker-{index}")
        provider = Cruncher(host, f"Cruncher-{index}")
        worker = SpaceWorker(provider, space.ref, txn_manager_ref=tm.ref)
        worker.start()
        workers.append(host)
    env.run(until=6.0)
    exerter = Exerter(Host(net, "client"))
    if kill_one_at is not None:
        def killer():
            yield env.timeout(kill_one_at)
            workers[0].fail()
        env.process(killer())
    t0 = env.now
    job = env.run(until=env.process(exerter.exert(batch_job(Access.PULL))))
    check(job)
    return env.now - t0


def test_push_vs_pull(report):
    rows = []
    for w in (1, 2, 4):
        rows.append([f"PULL, {w} worker(s)", run_pull(w)])
    rows.append(["PUSH, 1 provider", run_push(1)])
    rows.append(["PUSH, 4 providers", run_push(4)])
    rows.append(["PULL, 2 workers, 1 crashes mid-batch",
                 run_pull(2, kill_one_at=0.3)])
    report(render_table(
        ["configuration", "makespan (s)"], rows,
        title=f"E-SPACE — {TASKS} tasks x {TASK_COST}s, PUSH vs PULL dispatch"))
    by_name = {row[0]: row[1] for row in rows}
    # Workers self-balance: more workers, shorter makespan.
    assert by_name["PULL, 4 worker(s)"] < by_name["PULL, 2 worker(s)"] \
        < by_name["PULL, 1 worker(s)"]
    # Ideal scaling would be 4x from 1 -> 4 workers; allow overheads.
    assert by_name["PULL, 1 worker(s)"] / by_name["PULL, 4 worker(s)"] > 2.0
    # PUSH parallelism comes from provider count (single-core providers).
    assert by_name["PUSH, 4 providers"] < by_name["PUSH, 1 provider"] / 2
    # Crash recovery: no task lost, job still completes (already checked),
    # costing extra time vs the healthy 2-worker run.
    assert by_name["PULL, 2 workers, 1 crashes mid-batch"] \
        >= by_name["PULL, 2 worker(s)"]
