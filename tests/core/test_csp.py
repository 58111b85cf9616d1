"""Composite sensor provider: composition, expressions, nesting, cycles."""

import pytest

from repro.net import Host
from repro.sorcer import Exerter, ServiceContext, Signature, Strategy, Task
from repro.core import (
    CompositeSensorProvider,
    CompositionError,
    KIND_COMPOSITE,
    OP_ADD_SERVICE,
    OP_GET_INFO,
    OP_GET_VALUE,
    OP_LIST_SERVICES,
    OP_SET_EXPRESSION,
    SENSOR_DATA_ACCESSOR,
    variable_name,
)

from .conftest import make_esp


def make_csp(net, name="Composite", strategy=Strategy.PARALLEL):
    csp = CompositeSensorProvider(Host(net, f"{name}-host"), name,
                                  strategy=strategy)
    csp.start()
    return csp


def exert_value(env, net, target, settle=2.0, requestor_suffix=""):
    exerter = Exerter(Host(net, f"value-req{requestor_suffix}"))

    def proc():
        yield env.timeout(settle)
        task = Task("get", Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                                     service_id=target.service_id),
                    ServiceContext())
        result = yield env.process(exerter.exert(task))
        return result

    return env.run(until=env.process(proc()))


def test_variable_name_sequence():
    assert [variable_name(i) for i in range(4)] == ["a", "b", "c", "d"]
    assert variable_name(25) == "z"
    assert variable_name(26) == "aa"
    assert variable_name(27) == "ab"
    assert variable_name(52) == "ba"


def test_add_child_assigns_variables_in_order(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    assert csp.add_child("id-1", "S1") == "a"
    assert csp.add_child("id-2", "S2") == "b"
    assert csp.add_child("id-3", "S3") == "c"
    assert csp.variable_of("id-2") == "b"


def test_cannot_contain_itself(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    with pytest.raises(CompositionError):
        csp.add_child(csp.service_id, csp.name)


def test_duplicate_child_rejected(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    csp.add_child("id-1", "S1")
    with pytest.raises(CompositionError):
        csp.add_child("id-1", "S1")


def test_remove_child_reassigns_variables(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    csp.add_child("id-1", "S1")
    csp.add_child("id-2", "S2")
    csp.remove_child("id-1")
    assert csp.variable_of("id-2") == "a"


def test_expression_validation(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    csp.add_child("id-1", "S1")
    with pytest.raises(CompositionError):
        csp.set_expression("(a + b)/2")  # b unbound
    csp.add_child("id-2", "S2")
    csp.set_expression("(a + b)/2")  # now fine
    with pytest.raises(CompositionError):
        csp.set_expression("a +")  # syntax error
    csp.set_expression(None)
    assert csp.expression is None


def test_removing_child_invalidates_expression(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    csp.add_child("id-1", "S1")
    csp.add_child("id-2", "S2")
    csp.set_expression("(a + b)/2")
    with pytest.raises(CompositionError):
        csp.remove_child("id-2")


def test_average_expression_over_live_sensors(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "S2", location=(50.0, 0.0))
    esp3 = make_esp(net, world, "S3", location=(0.0, 50.0))
    csp = make_csp(net)
    for esp in (esp1, esp2, esp3):
        csp.add_child(esp.service_id, esp.name)
    csp.set_expression("(a + b + c)/3")
    result = exert_value(env, net, csp)
    assert result.is_done
    value = result.get_return_value()
    truth = world.mean_over("temperature",
                            [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)], env.now)
    assert abs(value - truth) < 1.0


def test_default_aggregation_is_mean(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "S2", location=(100.0, 0.0))
    csp = make_csp(net)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    result = exert_value(env, net, csp)
    value = result.get_return_value()
    truth = world.mean_over("temperature", [(0, 0), (100, 0)], env.now)
    assert abs(value - truth) < 1.0


def test_expression_can_use_functions(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1", location=(0.0, 0.0))
    esp2 = make_esp(net, world, "S2", location=(100.0, 0.0))
    csp = make_csp(net)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    csp.set_expression("max(a, b) - b")
    result = exert_value(env, net, csp)
    assert result.is_done
    assert result.get_return_value() >= 0.0


def test_empty_composite_fails(grid):
    env, net, world, lus = grid
    csp = make_csp(net)
    result = exert_value(env, net, csp)
    assert result.is_failed
    assert "no composed services" in result.exceptions[0]


def test_nested_composites(grid):
    """Fig 3's structure: network = composite(subnet, extra-sensor)."""
    env, net, world, lus = grid
    s1 = make_esp(net, world, "S1", location=(0.0, 0.0))
    s2 = make_esp(net, world, "S2", location=(10.0, 0.0))
    s3 = make_esp(net, world, "S3", location=(20.0, 0.0))
    subnet = make_csp(net, "Subnet")
    subnet.add_child(s1.service_id, s1.name)
    subnet.add_child(s2.service_id, s2.name)
    subnet.set_expression("(a + b)/2")
    network = make_csp(net, "Network")
    network.add_child(subnet.service_id, subnet.name)
    network.add_child(s3.service_id, s3.name)
    network.set_expression("(a + b)/2")
    result = exert_value(env, net, network, settle=3.0)
    assert result.is_done
    value = result.get_return_value()
    t = env.now
    truth = (world.mean_over("temperature", [(0, 0), (10, 0)], t)
             + world.sample("temperature", (20, 0), t)) / 2
    assert abs(value - truth) < 1.0


def test_composition_cycle_detected_at_query(grid):
    env, net, world, lus = grid
    a = make_csp(net, "A")
    b = make_csp(net, "B")
    # Build a cycle behind the manager's back: A contains B, B contains A.
    a.add_child(b.service_id, "B")
    b.add_child(a.service_id, "A")
    result = exert_value(env, net, a, settle=3.0)
    assert result.is_failed
    assert "cycle" in str(result.exceptions).lower()


def test_dead_child_fails_collection(grid):
    env, net, world, lus = grid
    esp = make_esp(net, world, "S1")
    csp = make_csp(net)
    csp.add_child(esp.service_id, esp.name)
    csp.child_wait = 1.0
    env.run(until=3.0)
    esp.host.fail()
    env.run(until=60.0)  # lease lapses, service vanishes
    result = exert_value(env, net, csp, settle=0.5)
    assert result.is_failed


def test_sequential_strategy_also_works(grid):
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1")
    esp2 = make_esp(net, world, "S2")
    csp = make_csp(net, strategy=Strategy.SEQUENTIAL)
    csp.add_child(esp1.service_id, esp1.name)
    csp.add_child(esp2.service_id, esp2.name)
    result = exert_value(env, net, csp)
    assert result.is_done


def test_management_via_exertions(grid):
    """add/setExpression/list/getInfo through the Servicer interface."""
    env, net, world, lus = grid
    esp1 = make_esp(net, world, "S1")
    esp2 = make_esp(net, world, "S2")
    csp = make_csp(net)
    exerter = Exerter(Host(net, "mgmt-req"))

    def op(selector, **args):
        ctx = ServiceContext()
        for key, value in args.items():
            ctx.put_in_value(f"arg/{key}", value)
        task = Task(f"m-{selector}",
                    Signature(SENSOR_DATA_ACCESSOR, selector,
                              service_id=csp.service_id), ctx)
        result = yield env.process(exerter.exert(task))
        assert result.is_done, result.exceptions
        return result.get_return_value()

    def proc():
        yield env.timeout(2.0)
        var1 = yield from op(OP_ADD_SERVICE, service_id=esp1.service_id, name="S1")
        var2 = yield from op(OP_ADD_SERVICE, service_id=esp2.service_id, name="S2")
        yield from op(OP_SET_EXPRESSION, expression="(a + b)/2")
        listed = yield from op(OP_LIST_SERVICES)
        info = yield from op(OP_GET_INFO)
        return var1, var2, listed, info

    var1, var2, listed, info = env.run(until=env.process(proc()))
    assert (var1, var2) == ("a", "b")
    assert [entry["variable"] for entry in listed] == ["a", "b"]
    assert info["service_type"] == KIND_COMPOSITE
    assert info["expression"] == "(a + b)/2"
    assert info["contained_services"] == ["S1", "S2"]


def test_variable_name_index_roundtrip():
    from repro.core import variable_index

    for index in list(range(100)) + [25, 26, 27, 51, 52, 701, 702]:
        assert variable_index(variable_name(index)) == index


def test_variable_index_validation():
    from repro.core import variable_index
    with pytest.raises(ValueError):
        variable_index("")
    with pytest.raises(ValueError):
        variable_index("A1")
    with pytest.raises(ValueError):
        variable_name(-1)
