"""E-FT — failure detection and self-healing, with the lease ablation.

Two measurements per lease duration L:

* **detection** — a sensor service's host crashes; how long until its
  registration lease lapses and the network forgets it (§IV.B: "this
  mechanism of leasing keeps the sensor network healthy and robust");
* **repair** — the cybernode hosting a provisioned composite crashes; how
  long until the provision monitor has a replacement instance visible on
  the surviving node (§IV.C fault tolerance).

Expected shape: both scale with L (detection bounded by ~L, repair by
~L + poll interval + instantiation), so short leases buy fast healing at
the cost of renewal traffic — which the table also reports.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network
from repro.jini import LookupService, ServiceTemplate
from repro.jini.entries import Location
from repro.resilience import Deadline, RetryPolicy, backoff_rng, \
    resilience_events
from repro.rio import Cybernode, OperationalString, ProvisionMonitor, \
    QosCapability, QosRequirement, ServiceElement
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.sorcer.accessor import breaker_registry
from repro.core import CompositeSensorProvider, ElementarySensorProvider, \
    OP_GET_VALUE, SENSOR_DATA_ACCESSOR, STALE_PATH, composite_factory

LEASES = (2.0, 5.0, 10.0, 20.0)


def detection_time(lease):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(5),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=5)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    probe = TemperatureProbe(env, "p", world, (0, 0),
                             rng=np.random.default_rng(0))
    esp = ElementarySensorProvider(Host(net, "esp-host"), "Victim", probe,
                                   lease_duration=lease)
    esp.start()
    env.run(until=5.0)
    assert len(lus.lookup(ServiceTemplate.by_name("Victim"), 5)) == 1
    renew_base = net.stats.by_kind.get("rpc-request", {}).get("messages", 0)
    killed_at = env.now
    esp.host.fail()
    while lus.lookup(ServiceTemplate.by_name("Victim"), 5):
        env.run(until=env.now + 0.25)
        if env.now - killed_at > 10 * lease + 30:
            raise AssertionError("service never deregistered")
    return env.now - killed_at


def renewal_traffic(lease, horizon=60.0):
    """Messages per minute a single idle service costs at lease L."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(5),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=5)
    LookupService(Host(net, "lus-host")).start()
    probe = TemperatureProbe(env, "p", world, (0, 0),
                             rng=np.random.default_rng(0))
    esp = ElementarySensorProvider(Host(net, "esp-host"), "Idle", probe,
                                   sample_interval=1e9, lease_duration=lease)
    esp.start()
    env.run(until=10.0)
    base = net.stats.messages
    env.run(until=10.0 + horizon)
    return (net.stats.messages - base) * 60.0 / horizon


def repair_time(lease):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(6),
                  latency=FixedLatency(0.001))
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    nodes = []
    for index in range(2):
        node = Cybernode(Host(net, f"cyber-{index}"), "Cybernode",
                         capability=QosCapability(compute_slots=4),
                         lease_duration=lease)
        node.start()
        nodes.append(node)
    monitor = ProvisionMonitor(Host(net, "monitor-host"), poll_interval=1.0)
    monitor.start()

    def factory(host, instance_name, attributes):
        provider = composite_factory(host, instance_name, attributes)
        provider._lease_duration = lease
        return provider

    element = ServiceElement(name="Aggregate", factory=factory, planned=1,
                             qos=QosRequirement(load=1, memory_mb=8))
    monitor.deploy(OperationalString("ft", [element]))
    env.run(until=15.0)
    items = lus.lookup(ServiceTemplate.by_name("Aggregate"), 5)
    assert len(items) == 1
    victim = items[0].service.host
    net.hosts[victim].fail()
    killed_at = env.now
    while True:
        env.run(until=env.now + 0.25)
        items = lus.lookup(ServiceTemplate.by_name("Aggregate"), 5)
        if items and items[0].service.host != victim:
            return env.now - killed_at
        if env.now - killed_at > 10 * lease + 60:
            raise AssertionError("service never re-provisioned")


def scripted_partition(breaker_enabled, fault_policy, expression=None,
                       seed=7):
    """One client polling a two-child CSP through scripted partitions.

    The link between the CSP and its second child is cut and healed five
    times (the heal lands at a different phase of the client's poll cycle
    each episode); the client polls with a hard per-query deadline (a
    dashboard refresh, not a batch job) and, like any polite poller, backs
    off exponentially while its polls keep failing. Returns
    during-partition availability, stale-substitution count, mean time
    from a heal to the first successful post-heal poll, and the full
    resilience event trace.
    """
    # Tight enough that the cut-off child's retry ladder (3 x 1 s timeouts
    # plus backoff) cannot finish inside it — without breakers the query
    # budget is mostly burned waiting on the dead branch.
    BUDGET = 2.5
    PARTITIONS = [(10.0, 25.0), (30.0, 45.0), (50.0, 65.0),
                  (70.0, 85.0), (90.0, 105.0)]
    END = 110.0
    env = Environment()
    net = Network(env, rng=np.random.default_rng(seed),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=seed)
    LookupService(Host(net, "lus-host")).start()
    esps = []
    for index, location in enumerate([(0.0, 0.0), (60.0, 0.0)]):
        name = f"FT{index + 1}"
        probe = TemperatureProbe(env, name.lower(), world, location,
                                 rng=np.random.default_rng(index),
                                 sensing_noise=0.0)
        esp = ElementarySensorProvider(Host(net, f"{name}-host"), name, probe,
                                       sample_interval=1.0,
                                       location=Location(building="Lab"))
        esp.start()
        esps.append(esp)
    csp = CompositeSensorProvider(Host(net, "csp-host"), "Composite-FT",
                                  fault_policy=fault_policy,
                                  child_wait=1.0, child_timeout=1.0,
                                  stale_max_age=120.0)
    csp.start()
    for esp in esps:
        csp.add_child(esp.service_id, esp.name)
    if expression is not None:
        csp.set_expression(expression)
    client_host = Host(net, "client-host")
    for host in (csp.host, client_host):
        registry = breaker_registry(host)
        registry.enabled = breaker_enabled
        registry.reset_timeout = 6.0
    results = []  # (started, finished, ok, stale)

    def client_loop():
        exerter = Exerter(client_host)
        poll_backoff = RetryPolicy(base_delay=0.5, max_delay=8.0)
        poll_rng = backoff_rng(client_host.name, salt=3)
        consecutive_failures = 0
        yield env.timeout(3.0)  # join/discovery settle
        while env.now < END:
            task = Task(f"read-{len(results)}",
                        Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                                  service_id=csp.service_id),
                        ServiceContext())
            task.control.provider_wait = 2.0
            task.control.invocation_timeout = BUDGET
            task.control.retries = 0
            task.control.deadline = Deadline.after(env.now, BUDGET)
            started = env.now
            result = yield env.process(exerter.exert(task))
            stale = bool(result.is_done
                         and result.context.get_value(STALE_PATH, None))
            results.append((started, env.now, result.is_done, stale))
            if result.is_done:
                consecutive_failures = 0
                yield env.timeout(0.5)
            else:
                yield env.timeout(
                    poll_backoff.delay(consecutive_failures, poll_rng))
                consecutive_failures += 1

    def script():
        sides = (["csp-host"], [f"{esps[1].name}-host"])
        for start, stop in PARTITIONS:
            yield env.timeout(start - env.now)
            net.partition(*sides)
            yield env.timeout(stop - env.now)
            net.heal_partition(*sides)

    env.process(client_loop())
    env.process(script())
    env.run(until=END)

    def cut(t):
        return any(start <= t < stop for start, stop in PARTITIONS)

    window = [r for r in results if cut(r[0])]
    availability = (sum(1 for r in window if r[2]) / len(window)
                    if window else 0.0)
    stale_answers = sum(1 for r in window if r[3])
    # Recovery: from each heal to the completion of the first successful
    # poll *issued* after it, averaged over the episodes. A breaker-less
    # client has been failing for the whole cut, so at heal time it is
    # deep in poll backoff (or draining a doomed in-flight query); a
    # breaker-protected one never stopped polling at full cadence.
    recoveries = []
    for index, (start, stop) in enumerate(PARTITIONS):
        horizon = (PARTITIONS[index + 1][0] if index + 1 < len(PARTITIONS)
                   else END)
        done = [r[1] for r in results
                if r[2] and stop <= r[0] < horizon]
        recoveries.append(min(done) - stop if done else horizon - stop)
    recovery = sum(recoveries) / len(recoveries)
    events = resilience_events(net)
    return {
        "availability": availability,
        "stale_answers": stale_answers,
        "recovery": recovery,
        "breaker_opens": events.count("breaker_open"),
        "trace": events.trace,
    }


def test_partition_resilience(report):
    arms = {
        "breaker off / skip": scripted_partition(False, "skip"),
        "breaker on / skip": scripted_partition(True, "skip"),
        "breaker on / degraded": scripted_partition(
            True, "degraded", expression="(a + b)/2"),
    }
    rows = [[label, f"{arm['availability']:.0%}", arm["stale_answers"],
             f"{arm['recovery']:.2f}", int(arm["breaker_opens"])]
            for label, arm in arms.items()]
    report(render_table(
        ["configuration", "partition availability", "stale answers",
         "mean recovery after heal (s)", "breaker opens"],
        rows,
        title="E-RES — circuit breakers + degraded CSP under scripted "
              "partitions (5 x 15 s cuts, client deadline 2.5 s)"))

    off, on, degraded = (arms["breaker off / skip"],
                         arms["breaker on / skip"],
                         arms["breaker on / degraded"])
    # Without breakers a poll waits on the cut-off child's retry ladder
    # and mostly loses to the client's deadline. Not always: retry damping
    # abandons a retry that cannot finish inside the deadline, and a poll
    # whose ladder is cut short that way answers from the survivor in time
    # — so the gate is the margin breakers add, not an absolute floor.
    assert off["breaker_opens"] == 0
    # Breakers skip the unreachable child in O(1): the survivors answer.
    assert on["availability"] > 0.8
    assert on["availability"] - off["availability"] >= 0.5
    assert on["breaker_opens"] >= 1
    # ...which also means the reading path is already responsive when the
    # partition heals: first post-heal reading arrives sooner.
    assert on["recovery"] < off["recovery"]
    # Degraded mode keeps the *expression* answering, flagged as stale.
    assert degraded["availability"] > 0.8
    assert degraded["stale_answers"] >= 10
    # Identical seeds replay the identical resilience event trace.
    replay = scripted_partition(True, "skip")
    assert replay["trace"] == on["trace"]


def test_fault_tolerance(report):
    rows = [[lease, detection_time(lease), repair_time(lease),
             renewal_traffic(lease)] for lease in LEASES]
    report(render_table(
        ["lease (s)", "detection (s)", "repair (s)", "renewal msgs/min"],
        rows,
        title="E-FT — crash detection and self-healing vs lease duration"))
    by_lease = {row[0]: row for row in rows}
    for lease in LEASES:
        # Detection is bounded by roughly one lease duration (+ sweep).
        assert by_lease[lease][1] <= lease + 2.0
        # Repair includes detection + monitor poll + instantiation.
        assert by_lease[lease][2] <= lease + 8.0
    # Short leases detect faster but renew more often.
    assert by_lease[2.0][1] < by_lease[20.0][1]
    assert by_lease[2.0][3] > by_lease[20.0][3]
