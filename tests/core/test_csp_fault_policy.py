"""CSP fault policies: strict vs skip vs degraded aggregation."""

import pytest

from repro.net import Host
from repro.sorcer import Exerter, ServiceContext, Signature, Strategy, Task
from repro.core import (
    STALE_PATH,
    CompositeSensorProvider,
    CompositionError,
    OP_GET_VALUE,
    SENSOR_DATA_ACCESSOR,
)

from .conftest import make_esp


def make_csp(net, fault_policy, tag=None, **kwargs):
    tag = tag if tag is not None else fault_policy
    csp = CompositeSensorProvider(Host(net, f"csp-{tag}-host"),
                                  f"Composite-{tag}",
                                  fault_policy=fault_policy,
                                  child_wait=1.0, **kwargs)
    csp.start()
    return csp


def query(env, net, csp, tag):
    exerter = Exerter(Host(net, f"fp-client-{tag}"))

    def proc():
        yield env.timeout(2.0)
        task = Task("q", Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                                   service_id=csp.service_id),
                    ServiceContext())
        result = yield env.process(exerter.exert(task))
        return result

    return env.run(until=env.process(proc()))


def test_invalid_policy_rejected(grid):
    env, net, world, lus = grid
    with pytest.raises(ValueError):
        CompositeSensorProvider(Host(net, "bad-host"), "Bad",
                                fault_policy="lenient")


def test_skip_policy_aggregates_survivors(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "S2", location=(100.0, 0.0))
    esp3 = make_esp(net, world, "S3", location=(200.0, 0.0))
    csp = make_csp(net, "skip")
    for esp in (esp1, esp2, esp3):
        csp.add_child(esp.service_id, esp.name)
    env.run(until=3.0)
    esp2.host.fail()
    env.run(until=60.0)  # lease lapses
    result = query(env, net, csp, "skip")
    assert result.is_done, result.exceptions
    truth = world.mean_over("temperature", [(0, 0), (200, 0)], env.now)
    assert abs(result.get_return_value() - truth) < 1.0


def test_strict_policy_fails_on_dead_child(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1")
    esp2 = make_esp(net, world, "S2")
    csp = make_csp(net, "strict")
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    env.run(until=3.0)
    esp2.host.fail()
    env.run(until=60.0)
    result = query(env, net, csp, "strict")
    assert result.is_failed


def test_skip_policy_rejects_expressions(grid):
    env, net, world, lus = grid
    csp = make_csp(net, "skip")
    csp.add_child("id-1", "S1")
    csp.add_child("id-2", "S2")
    with pytest.raises(CompositionError):
        csp.set_expression("(a + b)/2")


def test_degraded_policy_substitutes_stale_value(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "D1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "D2", location=(100.0, 0.0))
    csp = make_csp(net, "degraded", stale_max_age=60.0, child_timeout=1.0)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    env.run(until=3.0)
    # First query populates the last-known-good cache for both children.
    warm = query(env, net, csp, "deg-warm")
    assert warm.is_done, warm.exceptions
    assert len(csp.last_known_good) == 2
    esp2.host.fail()
    result = query(env, net, csp, "deg-stale")
    assert result.is_done, result.exceptions
    assert csp.events.count("stale_substitution") == 1
    notes = result.context.get_value(STALE_PATH)
    assert [n["child"] for n in notes] == ["D2"]
    assert notes[0]["variable"] == "b"
    assert notes[0]["age"] <= 60.0


def test_degraded_policy_allows_expressions(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "E1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "E2", location=(50.0, 0.0))
    csp = make_csp(net, "degraded", tag="deg-expr", stale_max_age=60.0,
                   child_timeout=1.0)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    csp.set_expression("(a + b)/2")  # legal: bindings are preserved
    env.run(until=3.0)
    warm = query(env, net, csp, "expr-warm")
    assert warm.is_done, warm.exceptions
    esp2.host.fail()
    result = query(env, net, csp, "expr-stale")
    # The expression still had both variables bound — b came from cache.
    assert result.is_done, result.exceptions
    assert result.context.get_value(STALE_PATH) is not None


def test_degraded_reading_flagged_stale(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "R1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "R2", location=(50.0, 0.0))
    csp = make_csp(net, "degraded", tag="deg-read", stale_max_age=60.0,
                   child_timeout=1.0)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    env.run(until=3.0)
    fresh = query(env, net, csp, "read-fresh")
    assert fresh.context.get_value(STALE_PATH, None) is None
    esp2.host.fail()
    stale = query(env, net, csp, "read-stale")
    assert stale.is_done, stale.exceptions
    assert stale.context.get_value(STALE_PATH, None) is not None


def test_degraded_policy_respects_staleness_bound(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "B1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "B2", location=(50.0, 0.0))
    csp = make_csp(net, "degraded", tag="deg-aged", stale_max_age=5.0,
                   child_timeout=1.0)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    csp.set_expression("(a + b)/2")
    env.run(until=3.0)
    warm = query(env, net, csp, "aged-warm")
    assert warm.is_done, warm.exceptions
    esp2.host.fail()
    env.run(until=env.now + 20.0)  # the cached value ages past the bound
    result = query(env, net, csp, "aged-stale")
    # Too old to substitute: with an expression attached the query fails
    # rather than serving arbitrarily ancient data.
    assert result.is_failed
    assert csp.events.count("stale_substitution") == 0


def test_degraded_without_cache_behaves_like_skip(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "N1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "N2", location=(50.0, 0.0))
    csp = make_csp(net, "degraded", tag="deg-cold", stale_max_age=60.0,
                   child_timeout=1.0)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    env.run(until=3.0)
    esp2.host.fail()  # dies before any query ever cached its value
    result = query(env, net, csp, "cold")
    # No expression: the surviving child carries the aggregate alone.
    assert result.is_done, result.exceptions
    assert csp.events.count("stale_substitution") == 0


def test_skip_policy_all_dead_still_fails(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "S1")
    csp = make_csp(net, "skip")
    csp.add_child(esp.service_id, esp.name)
    env.run(until=3.0)
    esp.host.fail()
    env.run(until=60.0)
    result = query(env, net, csp, "alldead")
    assert result.is_failed
    assert "no component answered" in str(result.exceptions) \
        or "no provider" in str(result.exceptions)
