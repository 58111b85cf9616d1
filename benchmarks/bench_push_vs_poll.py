"""E-PUSH — delivering sensor data: polling vs leased push subscriptions.

Our §II.5 extension (ESP `subscribe`) closes the paper's "data on-the-fly"
motivation; this bench quantifies what it buys. A consumer wants one fresh
reading every D seconds from one ESP for 60 s:

* **poll** — exert ``getValue`` every D seconds (request + reply, each an
  exertion round trip; the provider comes from the consumer's lookup
  cache, so a reading pays no LUS lookup);
* **push** — one ``subscribe`` exertion, then leased events at
  ``min_interval=D``: one one-way ``notify`` message per delivery, plus
  half-life lease renewals on a 60 s lease (1.27 messages per reading at
  D = 1 s in the committed table).

Reported: network messages and bytes per delivered reading. Expected
shape: at D = 1 s push costs under three fifths of polling's messages (no
exertion round trip, no acknowledgement) and under two sevenths of its
bytes (events are smaller than exertion round trips); the advantage
shrinks as D grows because lease renewals amortize worse.
"""

import numpy as np

from repro.util.table import render_table
from repro.sim import Environment
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.jini import LookupService
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import ElementarySensorProvider, SENSOR_DATA_ACCESSOR

DELIVERY_INTERVALS = (1.0, 5.0)
HORIZON = 60.0


def stack(seed=37):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(seed),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=seed)
    LookupService(Host(net, "lus-host")).start()
    probe = TemperatureProbe(env, "p", world, (0, 0),
                             rng=np.random.default_rng(0))
    esp = ElementarySensorProvider(Host(net, "esp-host"), "Spot", probe,
                                   sample_interval=1.0)
    esp.start()
    env.run(until=5.0)
    return env, net, esp


def consumer_traffic(net, host_name):
    stats = net.stats.host_bytes(host_name)
    return (stats["sent_messages"] + stats["received_messages"],
            stats["sent"] + stats["received"])


def run_poll(interval):
    env, net, esp = stack()
    client = Host(net, "consumer")
    exerter = Exerter(client)
    delivered = 0

    def proc():
        nonlocal delivered
        # Warm-up excludes one-off discovery costs from the per-reading rate.
        warm = Task("warm", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                      service_id=esp.service_id),
                    ServiceContext())
        yield env.process(exerter.exert(warm))
        base = consumer_traffic(net, "consumer")
        deadline = env.now + HORIZON
        while env.now < deadline:
            task = Task("q", Signature(SENSOR_DATA_ACCESSOR, "getValue",
                                       service_id=esp.service_id),
                        ServiceContext())
            result = yield env.process(exerter.exert(task))
            if result.is_done:
                delivered += 1
            yield env.timeout(interval)
        return base

    base = env.run(until=env.process(proc()))
    after = consumer_traffic(net, "consumer")
    return delivered, after[0] - base[0], after[1] - base[1]


def run_push(interval):
    env, net, esp = stack()
    client = Host(net, "consumer")
    ep = rpc_endpoint(client)
    exerter = Exerter(client)
    received = []

    class Listener:
        REMOTE_TYPES = ("RemoteEventListener",)

        def notify(self, event):
            received.append(event)

    listener_ref = ep.export(Listener(), "listener")

    def proc():
        ctx = ServiceContext()
        ctx.put_in_value("arg/listener", listener_ref)
        ctx.put_in_value("arg/min_interval", interval)
        ctx.put_in_value("arg/lease_duration", 60.0)
        task = Task("sub", Signature(SENSOR_DATA_ACCESSOR, "subscribe",
                                     service_id=esp.service_id), ctx)
        result = yield env.process(exerter.exert(task))
        assert result.is_done, result.exceptions
        sub = result.get_return_value()
        base = consumer_traffic(net, "consumer")
        deadline = env.now + HORIZON
        while env.now < deadline:
            yield env.timeout(30.0)  # renew at the lease half-life
            renew_ctx = ServiceContext()
            renew_ctx.put_in_value("arg/lease_id", sub.lease_id)
            renew_ctx.put_in_value("arg/lease_duration", 60.0)
            renew = Task("renew", Signature(SENSOR_DATA_ACCESSOR,
                                            "renewSubscription",
                                            service_id=esp.service_id),
                         renew_ctx)
            yield env.process(exerter.exert(renew))
        return base

    base = env.run(until=env.process(proc()))
    after = consumer_traffic(net, "consumer")
    return len(received), after[0] - base[0], after[1] - base[1]


def test_push_vs_poll(report):
    rows = []
    for interval in DELIVERY_INTERVALS:
        p_count, p_msgs, p_bytes = run_poll(interval)
        s_count, s_msgs, s_bytes = run_push(interval)
        rows.append([interval,
                     p_msgs / p_count, p_bytes / p_count,
                     s_msgs / s_count, s_bytes / s_count])
    report(render_table(
        ["delivery interval (s)", "poll msgs/reading", "poll B/reading",
         "push msgs/reading", "push B/reading"],
        rows,
        title=f"E-PUSH — consumer-link cost per delivered reading "
              f"({HORIZON:.0f}s horizon)"))
    for row in rows:
        _, poll_msgs, poll_bytes, push_msgs, push_bytes = row
        assert push_msgs < poll_msgs
        assert push_bytes < poll_bytes / 2
    _, poll_msgs, poll_bytes, push_msgs, push_bytes = rows[0]
    assert push_msgs < poll_msgs * 3 / 5
    assert push_bytes < poll_bytes * 2 / 7
