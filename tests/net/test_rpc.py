"""Tests for the RPC layer."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import (
    FixedLatency,
    Host,
    HostDownError,
    Network,
    NoSuchObjectError,
    RemoteError,
    RemoteRef,
    RpcTimeout,
    UnreachableError,
    rpc_endpoint,
)
from repro.net.network import LinkDecision
from repro.net.wire import WireSized


class Calculator:
    REMOTE_TYPES = ("Calculator",)

    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("server exploded")

    def slow_boom(self, env):
        yield env.timeout(0.5)
        raise ValueError("server exploded, eventually")

    def _secret(self):
        return "hidden"


class SlowService:
    def __init__(self, env, delay):
        self.env = env
        self.delay = delay

    def work(self, x):
        yield self.env.timeout(self.delay)
        return x * 2


def setup():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1), latency=FixedLatency(0.001))
    server_host = Host(net, "server")
    client_host = Host(net, "client")
    server = rpc_endpoint(server_host)
    client = rpc_endpoint(client_host)
    return env, net, server_host, client_host, server, client


def test_simple_call():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        result = yield client.call(ref, "add", 2, 3)
        return result

    p = env.process(caller())
    assert env.run(until=p) == 5


def test_call_roundtrip_takes_two_hops():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        yield client.call(ref, "add", 1, 1)
        return env.now

    p = env.process(caller())
    assert env.run(until=p) == pytest.approx(0.002)


def test_remote_exception_wrapped():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        try:
            yield client.call(ref, "boom")
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(caller())
    assert env.run(until=p) == "ValueError"


def test_remote_exception_from_a_serving_process_wrapped():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        try:
            yield client.call(ref, "slow_boom", env)
        except RemoteError as exc:
            return (type(exc.cause).__name__, env.now)

    p = env.process(caller())
    assert env.run(until=p) == ("ValueError", pytest.approx(0.502))


def test_generator_method_runs_as_process():
    env, net, sh, ch, server, client = setup()
    ref = server.export(SlowService(env, delay=1.0), "slow")

    def caller():
        result = yield client.call(ref, "work", 21)
        return (result, env.now)

    p = env.process(caller())
    result, when = env.run(until=p)
    assert result == 42
    assert when == pytest.approx(1.002)


def test_unknown_object_id():
    env, net, sh, ch, server, client = setup()
    bogus = RemoteRef(host="server", object_id="nope")

    def caller():
        try:
            yield client.call(bogus, "add", 1, 2)
        except NoSuchObjectError:
            return "missing"

    p = env.process(caller())
    assert env.run(until=p) == "missing"


def test_unknown_method():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        try:
            yield client.call(ref, "divide", 1, 2)
        except NoSuchObjectError:
            return "no-method"

    p = env.process(caller())
    assert env.run(until=p) == "no-method"


def test_private_method_not_invocable():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        try:
            yield client.call(ref, "_secret")
        except NoSuchObjectError:
            return "denied"

    p = env.process(caller())
    assert env.run(until=p) == "denied"


def test_method_allowlist_enforced():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc", methods=["add"])

    def caller():
        try:
            yield client.call(ref, "boom")
        except NoSuchObjectError:
            return "filtered"

    p = env.process(caller())
    assert env.run(until=p) == "filtered"


def test_timeout_on_dead_server():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    sh.fail()

    def caller():
        try:
            yield client.call(ref, "add", 1, 2, timeout=0.5)
        except RpcTimeout:
            return env.now

    p = env.process(caller())
    assert env.run(until=p) == pytest.approx(0.5)


def test_late_reply_after_timeout_is_dropped():
    env, net, sh, ch, server, client = setup()
    ref = server.export(SlowService(env, delay=2.0), "slow")

    def caller():
        try:
            yield client.call(ref, "work", 1, timeout=0.5)
        except RpcTimeout:
            pass
        # Keep living past the late reply to ensure it doesn't blow up.
        yield env.timeout(5)
        return "ok"

    p = env.process(caller())
    assert env.run(until=p) == "ok"
    assert net.stats.by_kind["rpc-reply"]["messages"] == 1  # sent, ignored
    assert client._pending == {}


def test_unexport_makes_object_unreachable():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    server.unexport("calc")

    def caller():
        try:
            yield client.call(ref, "add", 1, 2)
        except NoSuchObjectError:
            return "gone"

    p = env.process(caller())
    assert env.run(until=p) == "gone"


def test_duplicate_export_rejected():
    env, net, sh, ch, server, client = setup()
    server.export(Calculator(), "calc")
    with pytest.raises(ValueError):
        server.export(Calculator(), "calc")


def test_remote_ref_type_names():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    assert ref.implements("Calculator")
    assert not ref.implements("Other")


def test_concurrent_calls_multiplex():
    env, net, sh, ch, server, client = setup()
    ref = server.export(SlowService(env, delay=1.0), "slow")
    results = []

    def caller(x):
        r = yield client.call(ref, "work", x)
        results.append(r)

    for i in range(5):
        env.process(caller(i))
    env.run()
    assert sorted(results) == [0, 2, 4, 6, 8]


def test_watchdog_neutralized_when_reply_arrives():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")

    def caller():
        result = yield client.call(ref, "add", 2, 3)
        return result

    p = env.process(caller())
    env.run(until=env.now)  # let call() run (process starts immediately)
    assert len(client._pending) == 1
    cancels = env.scheduler_stats()["cancels"]
    assert env.run(until=p) == 5
    # Reply arrived: pending map drained and the watchdog withdrawn, so
    # draining the queue past the full timeout dispatches nothing at all.
    assert client._pending == {}
    assert env.scheduler_stats()["cancels"] == cancels + 1
    pops = env.scheduler_stats()["pops"]
    env.run()
    assert env.scheduler_stats()["pops"] == pops
    assert env.scheduler_stats()["pending"] == 0


def test_no_watchdog_process_spawned_per_call():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    spawned = []
    original = env.process

    def recording_process(gen, name=None):
        spawned.append(name)
        return original(gen, name=name)

    env.process = recording_process

    def caller():
        result = yield client.call(ref, "add", 4, 4)
        return result

    p = original(caller(), name="caller")
    assert env.run(until=p) == 8
    # Only the caller and the server-side dispatch run as processes; the
    # client-side timeout watchdog must not be one.
    assert not any(name and "timeout" in name for name in spawned if name)


def test_watchdog_still_fires_without_reply():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    sh.fail()

    def caller():
        try:
            yield client.call(ref, "add", 1, 2, timeout=0.75)
        except RpcTimeout:
            return ("timed-out", env.now)

    p = env.process(caller())
    assert env.run(until=p) == ("timed-out", pytest.approx(0.75))
    assert client._pending == {}


def test_same_instant_requests_are_served_in_delivery_order():
    """Delivery 1, serve 1, delivery 2, serve 2: a request is executed
    inside the event that delivers it, before the next same-instant arrival
    is looked at — the order every golden was recorded under."""
    env, net, sh, ch, server, client = setup()
    other = rpc_endpoint(Host(net, "client-2"))
    served = []

    class Recorder:
        def mark(self, who):
            served.append(who)

    ref = server.export(Recorder(), "rec")
    client.call(ref, "mark", 1)
    other.call(ref, "mark", 2)
    env.run(until=0.0009)
    assert env.peek() == pytest.approx(0.001)   # both requests land here
    after_each_event = []
    for _ in range(2):
        env.step()
        after_each_event.append(list(served))
    assert after_each_event == [[1], [1, 2]]
    assert env.now == pytest.approx(0.001)


def test_duplicated_request_executes_once():
    env, net, sh, ch, server, client = setup()
    net.add_link_filter(
        lambda msg: LinkDecision(copies=(0.0005,))
        if msg.kind == "rpc-request" else None)
    executed = []

    class Once:
        def run(self):
            executed.append(env.now)
            return "done"

    ref = server.export(Once(), "once")

    def caller():
        return (yield client.call(ref, "run"))

    assert env.run(until=env.process(caller())) == "done"
    env.run()
    assert net.stats.by_kind["rpc-request"]["messages"] == 2
    assert len(executed) == 1
    assert net.stats.by_kind["rpc-reply"]["messages"] == 1


def test_a_cast_is_one_message_one_event_and_nothing_pending():
    env, net, sh, ch, server, client = setup()
    added = []
    ref = server.export(added, "list", methods=("append",))
    before = env.scheduler_stats()
    assert client.cast(ref, "append", 7) is None
    assert client._pending == {}
    env.run()
    after = env.scheduler_stats()
    assert added == [7]
    # The request's delivery, which serves it; no watchdog to cancel, no
    # reply. With a serve hop after each delivery this was two events.
    assert after["pops"] - before["pops"] == 1
    assert after["cancels"] - before["cancels"] == 0
    assert after["pending"] == 0
    assert net.stats.messages == 1


def test_duplicated_cast_executes_once():
    env, net, sh, ch, server, client = setup()
    net.add_link_filter(
        lambda msg: LinkDecision(copies=(0.0005,))
        if msg.kind == "rpc-request" else None)
    executed = []
    ref = server.export(executed, "once", methods=("append",))
    client.cast(ref, "append", "ran")
    env.run()
    assert net.stats.by_kind["rpc-request"]["messages"] == 2
    assert executed == ["ran"]
    assert net.stats.messages == 2


class Ledger:
    def __init__(self):
        self.ran = []

    def allowed(self):
        self.ran.append("allowed")

    def other(self):
        self.ran.append("other")

    def _private(self):
        self.ran.append("_private")


@pytest.mark.parametrize("object_id, method", [
    ("nope", "allowed"),       # not exported
    ("ledger", "other"),       # outside the allow-list
    ("ledger", "_private"),    # private
    ("ledger", "missing"),     # no such method
])
def test_a_refused_cast_runs_nothing_and_sends_nothing_back(object_id,
                                                            method):
    env, net, sh, ch, server, client = setup()
    ledger = Ledger()
    server.export(ledger, "ledger", methods=["allowed"])
    client.cast(RemoteRef(host="server", object_id=object_id), method)
    env.run()
    assert ledger.ran == []
    assert net.stats.messages == 1


@pytest.mark.parametrize("method", ["boom", "slow_boom"])
def test_a_failing_cast_target_sends_nothing_back_and_raises_nothing(method):
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    client.cast(ref, method, *((env,) if method == "slow_boom" else ()))
    env.run()
    assert net.stats.messages == 1


def test_a_cast_that_cannot_be_sent_is_dropped():
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    client.cast(RemoteRef("nowhere", "calc"), "add", 1, 2)
    ch.fail()
    client.cast(ref, "add", 1, 2)
    env.run()
    assert net.stats.messages == 0


def test_nested_rpc_server_calls_another_server():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(1), latency=FixedLatency(0.001))
    h1, h2, h3 = Host(net, "h1"), Host(net, "h2"), Host(net, "h3")
    e1, e2, e3 = rpc_endpoint(h1), rpc_endpoint(h2), rpc_endpoint(h3)
    calc_ref = e3.export(Calculator(), "calc")

    class Middle:
        def relay(self, a, b):
            result = yield e2.call(calc_ref, "add", a, b)
            return result + 100

    mid_ref = e2.export(Middle(), "mid")

    def caller():
        result = yield e1.call(mid_ref, "relay", 1, 2)
        return result

    p = env.process(caller())
    assert env.run(until=p) == 103


def test_send_failure_is_a_failed_event_not_a_raise():
    # A modelled network failure (the caller's own host is down, the
    # destination is unknown) comes back through the event, like a timeout.
    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    for broken_ref, error in ((RemoteRef("nowhere", "calc"), UnreachableError),
                              (ref, HostDownError)):
        if error is HostDownError:
            ch.fail()

        def caller(target=broken_ref, expected=error):
            with pytest.raises(expected):
                yield client.call(target, "add", 1, 2)
            return "failed as an event"

        assert env.run(until=env.process(caller())) == "failed as an event"
    assert not client._pending


def test_a_bug_while_sending_raises_at_the_call_site():
    # Not a NetworkError: a programming error inside a payload's sizer must
    # not be dressed up as a send_failed span and a failed event.
    class BrokenSizer(WireSized):
        def wire_size(self):
            raise ZeroDivisionError("sizer bug")

    env, net, sh, ch, server, client = setup()
    ref = server.export(Calculator(), "calc")
    with pytest.raises(ZeroDivisionError, match="sizer bug"):
        client.call(ref, "add", BrokenSizer(), 2)
