"""The event-driven lookup cache behind ServiceAccessor.

One miss registers interest in the template at the LUS and looks it up;
service events keep the entry current after that, so repeat lookups send
no message. Every way an event can fail to arrive forces a miss instead.
"""

from repro.jini import LookupService, ServiceTemplate
from repro.net import Host
from repro.net.network import LinkDecision
from repro.observability import tracer_of
from repro.sorcer import (
    Exerter,
    ServiceAccessor,
    ServiceContext,
    Signature,
    Task,
    Tasker,
)

PING = ServiceTemplate.by_type("Ping")


class PingProvider(Tasker):
    SERVICE_TYPES = ("Ping",)

    def __init__(self, host, name="Ping", **kw):
        super().__init__(host, name, **kw)
        self.served = 0
        self.add_operation("ping", self._ping)

    def _ping(self, ctx):
        self.served += 1
        return "pong"


def ping_task(name="p", timeout=5.0, retries=2):
    task = Task(name, Signature("Ping", "ping"), ServiceContext())
    task.control.invocation_timeout = timeout
    task.control.retries = retries
    return task


def sent(net, kind):
    return net.stats.by_kind[kind]["messages"]


def run_queries(env, exerter, count, **task):
    def proc():
        ok = 0
        for _ in range(count):
            result = yield env.process(exerter.exert(ping_task(**task)))
            ok += 1 if result.is_done else 0
        return ok

    return env.run(until=env.process(proc()))


def find(env, accessor, template=PING, max_matches=16):
    return env.run(until=env.process(
        accessor.find_items(template, max_matches=max_matches, wait=3.0)))


def client_of(net, name="client"):
    accessor = ServiceAccessor(Host(net, name))
    return accessor, Exerter(accessor.host, accessor=accessor)


def test_cache_skips_lus_lookups(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    assert run_queries(env, exerter, 10) == 10
    # One registration and one lookup, then nine hits.
    assert sent(net, "lus-notify") == 1
    assert sent(net, "lus-lookup") == 1
    assert (accessor.cache_misses, accessor.cache_hits) == (1, 9)


def test_lease_lapse_evicts_a_provider(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-1"), "Ping-1", lease_duration=5.0).start()
    p2 = PingProvider(Host(net, "p-2"), "Ping-2", lease_duration=5.0).start()
    env.run(until=3.0)
    accessor, _ = client_of(net)
    assert len(find(env, accessor)) == 2
    net.hosts["p-1"].fail()
    env.run(until=env.now + 8.0)  # past the lease: MATCH_NOMATCH
    lookups = sent(net, "lus-lookup")
    assert [item.service_id for item in find(env, accessor)] == [p2.service_id]
    assert sent(net, "lus-lookup") == lookups


def test_a_joining_provider_is_used_with_no_lookup(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-1"), "Ping-1").start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    assert run_queries(env, exerter, 1) == 1
    lookups = sent(net, "lus-lookup")
    p2 = PingProvider(Host(net, "p-2"), "Ping-2").start()
    env.run(until=env.now + 2.0)  # NOMATCH_MATCH
    assert run_queries(env, exerter, 4) == 4
    assert p2.served == 2  # round-robin over the two
    assert sent(net, "lus-lookup") == lookups


def test_the_client_host_crash_forces_a_miss(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    run_queries(env, exerter, 2)
    accessor.host.fail()
    env.run(until=env.now + 1.0)
    accessor.host.recover()
    assert run_queries(env, exerter, 2) == 2
    # Events sent while the host was down are lost: one lookup again, on
    # the registration it already holds.
    assert sent(net, "lus-lookup") == 2
    assert sent(net, "lus-notify") == 1
    assert (accessor.cache_misses, accessor.cache_hits) == (2, 2)


def test_an_lus_restart_forces_a_miss_and_a_new_registration(grid):
    env, net, lus = grid
    p1 = PingProvider(Host(net, "p-1"), "Ping-1", lease_duration=5.0).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    run_queries(env, exerter, 1)
    lus.host.fail()
    env.run(until=env.now + 1.0)
    lus.host.recover()
    # The next announcement carries a new incarnation: discovery discards
    # and rediscovers the registrar, and the entry is forgotten.
    env.run(until=env.now + lus.announce_interval + 2.0)
    assert lus.incarnation == 1
    assert not accessor.is_cached(PING)
    assert run_queries(env, exerter, 1) == 1
    assert sent(net, "lus-notify") == 2
    # The new registration delivers: a departure evicts with no lookup.
    p2 = PingProvider(Host(net, "p-2"), "Ping-2", lease_duration=5.0).start()
    env.run(until=env.now + 2.0)
    p1.host.fail()
    env.run(until=env.now + 8.0)
    lookups = sent(net, "lus-lookup")
    assert [item.service_id for item in find(env, accessor)] == [p2.service_id]
    assert sent(net, "lus-lookup") == lookups


def test_cache_expires(grid):
    """The event lease lapses unrenewed: the entry becomes a miss that
    registers again."""
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    run_queries(env, exerter, 1)
    env.run(until=env.now + accessor.cache.EVENT_LEASE + 1.0)
    assert not accessor.is_cached(PING)
    run_queries(env, exerter, 1)
    assert sent(net, "lus-notify") == 2
    assert sent(net, "lus-lookup") == 2


def test_stale_cache_tolerated_by_failover(grid):
    """The replacement's arrival event is lost (the client is cut off from
    the LUS while it registers), so the entry names only the dead
    provider. Its failure is a cache hit that failed: one live lookup names
    the replacement, and no query fails. The dead provider's lease has not
    lapsed, so a later query whose rotation starts at it does the same."""
    env, net, lus = grid
    p1 = PingProvider(Host(net, "p-1"), "Ping-1").start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    assert run_queries(env, exerter, 1) == 1
    net.partition(["client"], ["lus-host"])
    p2 = PingProvider(Host(net, "p-2"), "Ping-2").start()
    env.run(until=env.now + 2.0)
    net.heal_partition(["client"], ["lus-host"])
    p1.host.fail()
    lookups = sent(net, "lus-lookup")
    tracer = tracer_of(net)
    tracer.reset()
    assert run_queries(env, exerter, 4, timeout=0.5, retries=0) == 4
    assert p2.served == 4
    fallbacks = [span for span in tracer.find(name="exert:p")
                 if ("cache_invalidated" in
                     [note[1] for note in span.annotations])]
    assert fallbacks
    assert sent(net, "lus-lookup") == lookups + len(fallbacks)


def test_a_failed_hit_whose_lookup_names_the_same_provider_is_not_retried(grid):
    """The fallback after a failed cache hit must not rerun the backoff
    schedule: with the live lookup naming the provider just tried, the
    task makes exactly ``retries + 1`` sends."""
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    assert run_queries(env, exerter, 1) == 1
    net.partition(["client"], ["p-host"])
    sends, lookups = sent(net, "exertion"), sent(net, "lus-lookup")
    tracer = tracer_of(net)
    tracer.reset()
    assert run_queries(env, exerter, 1, name="cut", timeout=0.5) == 0
    assert sent(net, "exertion") - sends == 3
    assert sent(net, "lus-lookup") - lookups == 1
    [root] = tracer.find(name="exert:cut")
    notes = [note[1] for note in root.annotations]
    assert notes.count("retry_scheduled") == 2
    assert notes.count("cache_invalidated") == 1


def test_a_larger_max_matches_is_not_answered_from_a_smaller_request(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-1"), "Ping-1").start()
    PingProvider(Host(net, "p-2"), "Ping-2").start()
    env.run(until=3.0)
    accessor, _ = client_of(net)
    assert len(find(env, accessor, max_matches=1)) == 1
    assert len(find(env, accessor, max_matches=16)) == 2
    lookups = sent(net, "lus-lookup")
    assert len(find(env, accessor, max_matches=16)) == 2
    assert sent(net, "lus-lookup") == lookups


def test_invalidate_clears(grid):
    """An invalidated entry is a miss, on the registration it holds."""
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    run_queries(env, exerter, 2)
    accessor.invalidate(PING)
    run_queries(env, exerter, 1)
    assert (accessor.cache_misses, accessor.cache_hits) == (2, 1)
    assert sent(net, "lus-notify") == 1


def test_accessors_on_one_host_share_the_cache(grid):
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    first, _ = client_of(net)
    second = ServiceAccessor(first.host)
    find(env, first)
    find(env, second)
    assert second.cache is first.cache
    assert (second.cache_misses, second.cache_hits) == (0, 1)


def lose_event(net, dst, service_id):
    """Drop the first service event about ``service_id`` cast to ``dst``."""
    dropped = []

    def link_filter(msg):
        if msg.kind == "service-event" and msg.dst == dst and not dropped:
            [event] = msg.payload[4]
            if event.service_id == service_id:
                dropped.append(event)
                return LinkDecision(drop=True)
        return None

    net.add_link_filter(link_filter)
    return dropped


def test_a_lost_event_shows_as_a_sequence_gap(grid):
    """The arrival of Ping-2 is lost; Ping-3's event skips a sequence
    number, so the entry is distrusted and one lookup names all three."""
    env, net, lus = grid
    PingProvider(Host(net, "p-1"), "Ping-1").start()
    env.run(until=3.0)
    accessor, _ = client_of(net)
    assert len(find(env, accessor)) == 1
    p2 = PingProvider(Host(net, "p-2"), "Ping-2")
    dropped = lose_event(net, "client", p2.service_id)
    p2.start()
    env.run(until=env.now + 2.0)
    assert len(dropped) == 1
    assert len(find(env, accessor)) == 1  # the loss is not yet visible
    PingProvider(Host(net, "p-3"), "Ping-3").start()
    env.run(until=env.now + 2.0)
    assert not accessor.is_cached(PING)
    lookups = sent(net, "lus-lookup")
    assert len(find(env, accessor)) == 3
    assert sent(net, "lus-lookup") == lookups + 1


def test_a_provider_another_registrar_still_names_is_kept(grid):
    """Ping-1's registration lapses at the second LUS only (it is cut off
    from it): that registrar's MATCH_NOMATCH must not evict it while the
    first still names it."""
    env, net, lus = grid
    lus_b = LookupService(Host(net, "lus-b"))
    lus_b.start()
    p1 = PingProvider(Host(net, "p-1"), "Ping-1", lease_duration=5.0).start()
    p2 = PingProvider(Host(net, "p-2"), "Ping-2", lease_duration=5.0).start()
    env.run(until=3.0)
    accessor, _ = client_of(net)
    assert len(find(env, accessor)) == 2
    assert sent(net, "lus-notify") == 2
    net.partition(["p-1"], ["lus-b"])
    assert lus_b.expire_registrations("Ping-1") == 1
    env.run(until=env.now + 1.5)  # the sweep reaps it: MATCH_NOMATCH
    assert len(lus_b.lookup(PING, 16)) == 1
    lookups = sent(net, "lus-lookup")
    assert {item.service_id for item in find(env, accessor)} == {
        p1.service_id, p2.service_id}
    assert sent(net, "lus-lookup") == lookups
    # Once no registrar names it, it is evicted.
    p1.host.fail()
    env.run(until=env.now + 10.0)
    assert [item.service_id for item in find(env, accessor)] == [
        p2.service_id]
    assert sent(net, "lus-lookup") == lookups


def test_a_registration_survives_a_discard_of_a_live_registrar(grid):
    """Discovery discards the LUS after a failed call and rediscovers it
    at the same incarnation: the registration it holds still delivers, so
    the miss looks up without registering a second interest."""
    env, net, lus = grid
    PingProvider(Host(net, "p-1"), "Ping-1").start()
    env.run(until=3.0)
    accessor, exerter = client_of(net)
    assert run_queries(env, exerter, 1) == 1
    accessor.discovery.discard(lus.lus_id)
    env.run(until=env.now + 2.0)  # the reprobe rediscovers it
    assert lus.lus_id in accessor.discovery.registrars
    assert not accessor.is_cached(PING)
    assert run_queries(env, exerter, 1) == 1
    assert sent(net, "lus-notify") == 1
    assert len(lus.checkpoint_state()["interests"]) == 1
    # ...and keeps the entry current: a joiner is used with no lookup.
    lookups = sent(net, "lus-lookup")
    PingProvider(Host(net, "p-2"), "Ping-2").start()
    env.run(until=env.now + 2.0)
    assert len(find(env, accessor)) == 2
    assert sent(net, "lus-lookup") == lookups


def test_a_miss_prunes_entries_whose_registrations_lapsed(grid):
    """Entries do not pile up: once every registration of an entry has
    lapsed, the next miss on any template drops it."""
    env, net, lus = grid
    PingProvider(Host(net, "p-host")).start()
    env.run(until=3.0)
    accessor, _ = client_of(net)
    for index in range(4):
        find(env, accessor, ServiceTemplate.by_name(f"Gone-{index}"))
    assert len(accessor.cache._entries) == 4
    env.run(until=env.now + accessor.cache.EVENT_LEASE + 1.0)
    assert len(find(env, accessor)) == 1
    assert list(accessor.cache._entries) == [PING]
    # A pruned template is looked up as any miss is: register, then look up.
    notifies, lookups = sent(net, "lus-notify"), sent(net, "lus-lookup")
    find(env, accessor, ServiceTemplate.by_name("Gone-0"))
    assert sent(net, "lus-notify") == notifies + 1
    assert sent(net, "lus-lookup") > lookups
