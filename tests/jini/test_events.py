"""``push_event`` — the one at-most-once event push every source uses."""

from repro.jini import RemoteEvent, push_event
from repro.net import Host, rpc_endpoint
from tests.jini.test_mailbox_renewal import Target


def setup(net):
    source = Host(net, "source")
    listener_host = Host(net, "listener-host")
    listener = Target()
    ref = rpc_endpoint(listener_host).export(listener, "listener")
    return source, listener_host, listener, ref


def push(source, ref, acks):
    event = RemoteEvent(source="src", event_id=1, sequence=1)
    push_event(source, ref, event, kind="test-event",
               on_ack=lambda: acks.append(source.env.now))


def test_reachable_listener_gets_the_event_and_the_hook_runs_once(env, net):
    source, _host, listener, ref = setup(net)
    acks = []
    push(source, ref, acks)
    env.run(until=5.0)
    assert [e.sequence for e in listener.events] == [1]
    assert len(acks) == 1
    assert net.stats.by_kind["test-event"]["messages"] == 1


def test_source_host_down_sends_nothing(env, net):
    source, _host, listener, ref = setup(net)
    acks = []
    source.fail()
    push(source, ref, acks)
    env.run(until=5.0)
    assert net.stats.messages == 0
    assert listener.events == [] and acks == []


def test_unreachable_listener_is_dropped_quietly(env, net):
    """No exception escapes the push process and the hook does not run."""
    source, listener_host, listener, ref = setup(net)
    acks = []
    listener_host.fail()
    push(source, ref, acks)
    env.run(until=10.0)   # past the 3 s push timeout
    assert net.stats.by_kind["test-event"]["messages"] == 1
    assert listener.events == [] and acks == []


def test_push_spawns_no_process_and_notifies_and_acks_once(env, net,
                                                          monkeypatch):
    source, _host, listener, ref = setup(net)
    spawned = []
    spawn = env.process

    def recording(generator, name=None):
        spawned.append(name)
        return spawn(generator, name=name)

    monkeypatch.setattr(env, "process", recording)
    acks = []
    push(source, ref, acks)
    env.run(until=10.0)
    assert spawned == []
    assert [e.sequence for e in listener.events] == [1]
    assert len(acks) == 1
