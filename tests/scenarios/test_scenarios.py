"""Canned scenarios build and behave."""

import pytest

from repro.jini import ServiceTemplate
from repro.core import SENSOR_DATA_ACCESSOR
from repro.scenarios import (
    build_direct_grid,
    build_farm,
    build_paper_lab,
    build_sensorcer_grid,
    grid_locations,
)


def test_grid_locations_unique_and_deterministic():
    locations = grid_locations(17)
    assert len(set(locations)) == 17
    assert grid_locations(17) == locations


def test_paper_lab_deterministic():
    lab1 = build_paper_lab(seed=5)
    lab1.settle(6.0)
    lab2 = build_paper_lab(seed=5)
    lab2.settle(6.0)
    names1 = sorted(i.name() for i in lab1.lus.lookup_all())
    names2 = sorted(i.name() for i in lab2.lus.lookup_all())
    assert names1 == names2
    v1 = lab1.env.run(until=lab1.env.process(
        lab1.browser.get_value("Neem-Sensor")))
    v2 = lab2.env.run(until=lab2.env.process(
        lab2.browser.get_value("Neem-Sensor")))
    assert v1 == v2


def test_sensorcer_grid_flat(monkeypatch):
    grid = build_sensorcer_grid(6, seed=3, fixed_latency=0.001)
    grid.settle(6.0)
    items = grid.lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 64)
    assert len(items) == 7  # 6 ESPs + root composite
    assert len(grid.root.children) == 6


def test_sensorcer_grid_tree():
    grid = build_sensorcer_grid(9, seed=3, tree_fanout=3, fixed_latency=0.001)
    grid.settle(6.0)
    # 9 leaves in groups of 3 -> 3 group composites under the root.
    assert len(grid.root.children) == 3
    assert len(grid.composites) == 4  # root + 3 groups


def test_sensorcer_grid_tree_value_matches_truth():
    grid = build_sensorcer_grid(9, seed=3, tree_fanout=3, fixed_latency=0.001)
    grid.settle(6.0)
    from repro.net import Host
    from repro.sorcer import Exerter, ServiceContext, Signature, Task
    exerter = Exerter(Host(grid.net, "requestor"))

    def proc():
        task = Task("root-value",
                    Signature(SENSOR_DATA_ACCESSOR, "getValue",
                              service_id=grid.root.service_id),
                    ServiceContext())
        result = yield grid.env.process(exerter.exert(task))
        return result

    result = grid.env.run(until=grid.env.process(proc()))
    assert result.is_done, result.exceptions
    # Mean of group means == global mean only for equal group sizes (true
    # here: 3 groups x 3 sensors).
    assert abs(result.get_return_value() - grid.ground_truth_mean()) < 1.0


def test_direct_grid_builds_nodes():
    grid = build_direct_grid(5, seed=3)
    assert len(grid.sensors) == 5
    assert grid.lus is None


def test_farm_structure():
    farm = build_farm(seed=4, n_fields=2, sensors_per_field=4)
    farm.settle(6.0)
    assert len(farm.fields) == 2
    assert len(farm.fields["Field-0"]) == 4
    items = farm.lus.lookup(ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), 64)
    # 8 ESPs + 2 field composites + 1 farm composite.
    assert len(items) == 11


def test_farm_field_composition_and_value():
    farm = build_farm(seed=4, n_fields=1, sensors_per_field=4)
    farm.settle(6.0)
    env, browser = farm.env, farm.browser
    temp_sensors = [esp.name for esp in farm.fields["Field-0"]
                    if esp.probe.teds.quantity == "temperature"]

    def proc():
        yield from browser.compose_service("Field-0", temp_sensors)
        yield from browser.add_expression("Field-0", "(a + b)/2")
        value = yield from browser.get_value("Field-0")
        return value

    value = env.run(until=env.process(proc()))
    truth = farm.ground_truth_field_mean("Field-0", "temperature")
    assert abs(value - truth) < 1.0
