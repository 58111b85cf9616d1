"""``push_event`` — the one at-most-once, one-way event push every source
uses: the ``notify`` request goes out and nothing comes back."""

from repro.jini import RemoteEvent, push_event
from repro.net import Host, rpc_endpoint
from tests.jini.test_mailbox_renewal import Target


def setup(net, listener=None):
    source = Host(net, "source")
    listener_host = Host(net, "listener-host")
    listener = listener if listener is not None else Target()
    ref = rpc_endpoint(listener_host).export(listener, "listener")
    return source, listener_host, listener, ref


def push(source, ref):
    event = RemoteEvent(source="src", event_id=1, sequence=1)
    push_event(source, ref, event, kind="test-event")


def test_reachable_listener_gets_the_event_once_and_nothing_comes_back(env,
                                                                      net):
    source, _host, listener, ref = setup(net)
    push(source, ref)
    env.run(until=5.0)
    assert [e.sequence for e in listener.events] == [1]
    assert net.stats.messages == 1
    assert net.stats.by_kind["test-event"]["messages"] == 1


def test_source_host_down_sends_nothing(env, net):
    source, _host, listener, ref = setup(net)
    source.fail()
    push(source, ref)
    env.run(until=5.0)
    assert net.stats.messages == 0
    assert listener.events == []


def test_unreachable_listener_is_dropped_quietly(env, net):
    """One message goes out, no event arrives, and no exception escapes."""
    source, listener_host, listener, ref = setup(net)
    listener_host.fail()
    push(source, ref)
    env.run(until=10.0)
    assert net.stats.messages == 1
    assert net.stats.by_kind["test-event"]["messages"] == 1
    assert listener.events == []


def test_a_listener_that_raises_is_dropped_at_the_listener(env, net):
    class Raising:
        def notify(self, event):
            raise RuntimeError("listener bug")

    source, _host, _listener, ref = setup(net, Raising())
    push(source, ref)
    env.run(until=5.0)
    assert net.stats.messages == 1


def test_push_spawns_no_process_and_notifies_once(env, net, monkeypatch):
    source, _host, listener, ref = setup(net)
    spawned = []
    spawn = env.process

    def recording(generator, name=None):
        spawned.append(name)
        return spawn(generator, name=name)

    monkeypatch.setattr(env, "process", recording)
    push(source, ref)
    env.run(until=10.0)
    assert spawned == []
    assert [e.sequence for e in listener.events] == [1]
