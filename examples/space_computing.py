#!/usr/bin/env python3
"""Space-based metacomputing over sensor data (§IV.D PULL federations).

The paper's point is that sensors become "fully fledged citizens" of a
metacomputing environment: their data can feed arbitrary federated
computations. Here a batch of analysis tasks (per-sensor anomaly scores
over recent history) is dropped into the exertion space; a pool of worker
providers pulls, computes and writes results back under transactions — and
one worker crashes mid-batch without losing a single task.

Run:  python examples/space_computing.py
"""

import numpy as np

from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, Name, TransactionManager
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import (
    Access,
    Exerter,
    ExertionSpace,
    Job,
    ServiceContext,
    Signature,
    SpaceWorker,
    Spacer,
    Strategy,
    Task,
    Tasker,
    join_service,
)
from repro.core import ElementarySensorProvider

N_SENSORS = 6
N_WORKERS = 3


class AnalysisProvider(Tasker):
    """Computes an anomaly score from a sensor's recent readings."""

    SERVICE_TYPES = ("SensorAnalysis",)

    def __init__(self, host, name, **kw):
        super().__init__(host, name, max_concurrency=1, **kw)
        self.add_operation("anomalyScore", self._score)

    def _score(self, ctx):
        values = np.array(ctx.get_value("arg/values"), dtype=float)
        yield self.env.timeout(0.3)  # the "compute" part of MC^2
        if values.size < 2 or values.std() == 0:
            return 0.0
        z = np.abs(values - values.mean()) / values.std()
        return float(z.max())


def main() -> None:
    env = Environment()
    rng = np.random.default_rng(42)
    net = Network(env, rng=rng, latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=42)

    LookupService(Host(net, "lus-host")).start()
    Spacer(Host(net, "spacer-host"), result_timeout=120.0).start()
    space_host = Host(net, "space-host")
    space = ExertionSpace(space_host)
    join_service(space_host, space.ref, net.ids.uuid(),
                 (Name("Exertion Space"),))
    tm = TransactionManager(Host(net, "txn-host"))

    # Sensors sampling on their own schedule.
    esps = []
    for index in range(N_SENSORS):
        probe = TemperatureProbe(env, f"p{index}", world, (index * 15.0, 0.0),
                                 rng=np.random.default_rng(index))
        esp = ElementarySensorProvider(Host(net, f"esp-{index}"),
                                       f"Sensor-{index}", probe,
                                       sample_interval=0.5)
        esp.start()
        esps.append(esp)

    # Worker pool pulling analysis tasks from the space.
    worker_hosts = []
    for index in range(N_WORKERS):
        host = Host(net, f"worker-{index}")
        provider = AnalysisProvider(host, f"Analysis-{index}")
        SpaceWorker(provider, space.ref, txn_manager_ref=tm.ref).start()
        worker_hosts.append(host)

    env.run(until=20.0)  # accumulate sensor history

    # Build the batch: one anomaly-score task per sensor, fed with that
    # sensor's buffered values (read straight from the buffers, to keep the
    # example focused on the space).
    job = Job("anomaly-batch", strategy=Strategy.PARALLEL, access=Access.PULL)
    for esp in esps:
        ctx = ServiceContext()
        ctx.put_in_value("arg/values", [float(v) for v in esp.buffer.values()])
        job.add(Task(f"score-{esp.name}",
                     Signature("SensorAnalysis", "anomalyScore"), ctx))
    job.control.invocation_timeout = 300.0

    # One worker dies mid-batch; its transactional takes are restored.
    def killer():
        yield env.timeout(0.4)
        worker_hosts[0].fail()
        print(f"*** worker-0 crashed at t={env.now:.1f}s ***")

    env.process(killer())
    exerter = Exerter(Host(net, "requestor"))
    t0 = env.now
    result = env.run(until=env.process(exerter.exert(job)))

    print(f"\nbatch status: {result.status.value} "
          f"(makespan {env.now - t0:.2f}s, {N_WORKERS - 1} surviving workers)")
    print("\nper-sensor anomaly scores (max |z| over 40 samples):")
    for esp in esps:
        score = result.context.get_value(
            f"score-{esp.name}/result/value")
        bar = "#" * int(score * 8)
        print(f"  {esp.name}: {score:5.2f}  {bar}")

    executed_by = {}
    for component in result.exertions:
        for record in component.trace:
            executed_by.setdefault(record.provider, 0)
            executed_by[record.provider] += 1
    print(f"\ntasks per worker: {executed_by}")
    assert result.is_done, result.exceptions


if __name__ == "__main__":
    main()
