"""Operation authorization: principals, ACL policies (§IV.D/§VIII)."""

import pytest

from repro.net import Host
from repro.observability import metrics_registry
from repro.sorcer import (
    AclPolicy,
    AllowAll,
    Exerter,
    ServiceContext,
    Signature,
    Task,
    Tasker,
)


class GuardedProvider(Tasker):
    SERVICE_TYPES = ("Guarded",)

    def __init__(self, host, name="Guarded", **kw):
        super().__init__(host, name, **kw)
        self.add_operation("read", lambda ctx: "data")
        self.add_operation("admin", lambda ctx: "root-data")


def acl():
    return AclPolicy({
        "read": {"*"},
        "admin": {"admin"},
    })


def exert_as(env, net, selector, principal, tag):
    exerter = Exerter(Host(net, f"sec-client-{tag}"))

    def proc():
        yield env.timeout(2.0)
        task = Task("t", Signature("Guarded", selector), ServiceContext(),
                    principal=principal)
        result = yield env.process(exerter.exert(task))
        return result

    return env.run(until=env.process(proc()))


def test_acl_table_semantics():
    policy = acl()
    assert policy.allows("anyone", "read")
    assert policy.allows("admin", "admin")
    assert not policy.allows("anyone", "admin")
    assert not policy.allows("anyone", "unlisted")


def test_acl_selector_wildcard():
    policy = AclPolicy({"*": {"admin"}})
    assert policy.allows("admin", "anything")
    assert not policy.allows("guest", "anything")


def test_allow_all():
    assert AllowAll().allows("anyone", "anything")


def test_open_provider_accepts_anonymous(grid):
    env, net, lus = grid
    GuardedProvider(Host(net, "p-host")).start()
    result = exert_as(env, net, "read", "anonymous", "a")
    assert result.is_done
    assert result.get_return_value() == "data"


def test_guarded_provider_allows_wildcard_read(grid):
    env, net, lus = grid
    GuardedProvider(Host(net, "p-host"), access_policy=acl()).start()
    result = exert_as(env, net, "read", "random-user", "b")
    assert result.is_done


def test_guarded_provider_denies_admin_to_stranger(grid):
    env, net, lus = grid
    GuardedProvider(Host(net, "p-host"), access_policy=acl()).start()
    result = exert_as(env, net, "admin", "random-user", "c")
    assert result.is_failed
    assert "may not invoke" in result.exceptions[0]


def test_guarded_provider_allows_admin_principal(grid):
    env, net, lus = grid
    GuardedProvider(Host(net, "p-host"), access_policy=acl()).start()
    result = exert_as(env, net, "admin", "admin", "d")
    assert result.is_done
    assert result.get_return_value() == "root-data"


def test_denial_counts_as_failure_stat(grid):
    env, net, lus = grid
    provider = GuardedProvider(Host(net, "p-host"), access_policy=acl())
    provider.start()
    exert_as(env, net, "admin", "intruder", "e")
    registry = metrics_registry(net)
    assert registry.value("provider.failed", provider=provider.name) == 1
    assert registry.value("provider.served", provider=provider.name) == 0


def test_principal_survives_copy():
    task = Task("t", Signature("X", "y"), principal="alice")
    assert task.copy().principal == "alice"
