"""Landlord/lease semantics."""

import pytest

from repro.sim import Environment
from repro.jini import Landlord, LeaseDeniedError, UnknownLeaseError


def test_grant_sets_expiration():
    env = Environment()
    landlord = Landlord(env, max_duration=100.0)
    lease = landlord.grant("res", 30.0)
    assert lease.expiration == 30.0
    assert lease.duration == 30.0
    assert landlord.lease_of("res").lease_id == lease.lease_id


def test_duration_clamped_to_max():
    env = Environment()
    landlord = Landlord(env, max_duration=10.0)
    lease = landlord.grant("res", 9999.0)
    assert lease.duration == 10.0


def test_nonpositive_duration_denied():
    env = Environment()
    landlord = Landlord(env)
    with pytest.raises(LeaseDeniedError):
        landlord.grant("res", 0.0)


def test_renew_extends():
    env = Environment()
    landlord = Landlord(env)

    def proc():
        lease = landlord.grant("res", 10.0)
        yield env.timeout(5.0)
        renewed = landlord.renew(lease.lease_id, 10.0)
        return renewed.expiration

    p = env.process(proc())
    assert env.run(until=p) == 15.0


def test_renew_expired_raises():
    env = Environment()
    landlord = Landlord(env)

    def proc():
        lease = landlord.grant("res", 1.0)
        yield env.timeout(2.0)
        try:
            landlord.renew(lease.lease_id, 10.0)
        except UnknownLeaseError:
            return "gone"

    p = env.process(proc())
    assert env.run(until=p) == "gone"


def test_renew_unknown_raises():
    env = Environment()
    landlord = Landlord(env)
    with pytest.raises(UnknownLeaseError):
        landlord.renew(999, 10.0)


def test_cancel_returns_resource():
    env = Environment()
    landlord = Landlord(env)
    lease = landlord.grant("the-resource", 10.0)
    assert landlord.cancel(lease.lease_id) == "the-resource"
    assert len(landlord) == 0


def test_cancel_does_not_fire_on_expire():
    env = Environment()
    expired = []
    landlord = Landlord(env, on_expire=expired.append)
    lease = landlord.grant("res", 10.0)
    landlord.cancel(lease.lease_id)
    assert expired == []


def test_reap_fires_on_expire():
    env = Environment()
    expired = []
    landlord = Landlord(env, on_expire=expired.append)

    def proc():
        landlord.grant("a", 1.0)
        landlord.grant("b", 5.0)
        yield env.timeout(2.0)
        reaped = landlord.reap()
        return reaped

    p = env.process(proc())
    assert env.run(until=p) == ["a"]
    assert expired == ["a"]
    assert len(landlord) == 1


def test_sweeper_process_reaps_periodically():
    env = Environment()
    expired = []
    landlord = Landlord(env, on_expire=expired.append)
    landlord.grant("x", 3.0)
    env.process(landlord.sweeper(1.0))
    env.run(until=10.0)
    assert expired == ["x"]
    assert len(landlord) == 0


def test_lease_remaining_and_is_expired():
    env = Environment()
    landlord = Landlord(env)
    lease = landlord.grant("r", 10.0)
    assert lease.remaining(0.0) == 10.0
    assert lease.remaining(4.0) == 6.0
    assert lease.remaining(11.0) == 0.0
    assert not lease.is_expired(9.9)
    assert lease.is_expired(10.0)


def test_resource_index_follows_the_lease_table():
    """``lease_of`` answers from the landlord's own index through every
    way a lease can come and go."""
    env = Environment()
    expired = []
    landlord = Landlord(env, max_duration=100.0, on_expire=expired.append)

    def proc():
        a = landlord.grant("a", 10.0)
        b = landlord.grant("b", 2.0)
        landlord.grant("c", 50.0)
        assert landlord.lease_of("a").lease_id == a.lease_id
        assert landlord.lease_of("nobody") is None
        yield env.timeout(1.0)
        landlord.renew(a.lease_id, 20.0)
        assert landlord.lease_of("a").expiration == 21.0
        assert landlord.lease_of("a").duration == 20.0
        # Cancel, then grant again: the index names the new lease.
        assert landlord.cancel(a.lease_id) == "a"
        assert landlord.lease_of("a") is None
        again = landlord.grant("a", 5.0)
        assert again.lease_id != a.lease_id
        assert landlord.lease_of("a").lease_id == again.lease_id
        # Expiry: lapsed-but-unreaped still shows, reaped does not.
        yield env.timeout(2.0)
        assert landlord.lease_of("b").lease_id == b.lease_id
        assert landlord.reap() == ["b"]
        assert landlord.lease_of("b") is None
        # force_expire lapses in place; the next reap drops the entry.
        assert landlord.force_expire(again.lease_id)
        assert landlord.lease_of("a").expiration == env.now
        assert landlord.reap() == ["a"]
        assert landlord.lease_of("a") is None
        assert landlord.lease_of("c") is not None
        landlord.clear()
        assert landlord.lease_of("c") is None and len(landlord) == 0

    env.run(until=env.process(proc()))
    assert expired == ["b", "a"]


def test_regranting_a_leased_resource_indexes_the_newest():
    env = Environment()
    landlord = Landlord(env)
    first = landlord.grant("r", 10.0)
    second = landlord.grant("r", 10.0)
    assert landlord.lease_of("r").lease_id == second.lease_id
    landlord.cancel(first.lease_id)   # the older lease: index unmoved
    assert landlord.lease_of("r").lease_id == second.lease_id
    landlord.cancel(second.lease_id)
    assert landlord.lease_of("r") is None
