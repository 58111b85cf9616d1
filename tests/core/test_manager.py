"""SensorNetworkManager (the logical-network model)."""

import pytest

from repro.core import NetworkModelError, SensorNetworkManager


@pytest.fixture
def manager():
    m = SensorNetworkManager()
    m.register_service("c1", "Composite-1", "COMPOSITE")
    m.register_service("c2", "Composite-2", "COMPOSITE")
    m.register_service("s1", "Sensor-1", "ELEMENTARY")
    m.register_service("s2", "Sensor-2", "ELEMENTARY")
    return m


def test_register_and_lookup(manager):
    assert manager.name_of("s1") == "Sensor-1"
    assert sorted(manager.composites_leaves_first()) == ["c1", "c2"]
    with pytest.raises(NetworkModelError):
        manager.name_of("nope")


def test_reregister_updates_metadata(manager):
    manager.register_service("s1", "Renamed", "ELEMENTARY")
    assert manager.name_of("s1") == "Renamed"


def test_compose_and_children(manager):
    manager.compose("c1", "s1")
    manager.compose("c1", "s2")
    assert manager.children_of("c1") == ["s1", "s2"]


def test_self_composition_rejected(manager):
    with pytest.raises(NetworkModelError):
        manager.compose("c1", "c1")


def test_duplicate_edge_rejected(manager):
    manager.compose("c1", "s1")
    with pytest.raises(NetworkModelError):
        manager.compose("c1", "s1")


def test_cycle_rejected(manager):
    manager.compose("c1", "c2")
    with pytest.raises(NetworkModelError):
        manager.compose("c2", "c1")


def test_deep_cycle_rejected(manager):
    manager.register_service("c3", "Composite-3", "COMPOSITE")
    manager.compose("c1", "c2")
    manager.compose("c2", "c3")
    with pytest.raises(NetworkModelError):
        manager.compose("c3", "c1")


def test_snapshot_roundtrip(manager):
    manager.compose("c1", "s1")
    snap = manager.snapshot()
    assert {"service_id": "s1", "name": "Sensor-1",
            "kind": "ELEMENTARY"} in snap["nodes"]
    assert {"parent": "c1", "child": "s1"} in snap["edges"]


def test_unknown_node_errors(manager):
    with pytest.raises(NetworkModelError):
        manager.compose("c1", "ghost")
    with pytest.raises(NetworkModelError):
        manager.children_of("ghost")


def test_composites_leaves_first(manager):
    manager.register_service("c3", "Composite-3", "COMPOSITE")
    manager.compose("c2", "s1")
    manager.compose("c1", "c3")
    manager.compose("c1", "c2")
    manager.compose("c3", "c2")
    # c2 sits under both others; c3 under c1. Elementary services are left out.
    assert manager.composites_leaves_first() == ["c2", "c3", "c1"]


def test_composites_leaves_first_is_networkx_order():
    """The order ``saveNetworkPlan`` had when the model was a networkx
    graph — ``reversed(topological_sort)`` — over random management
    histories (register, compose, re-register)."""
    nx = pytest.importorskip("networkx")
    import random
    for seed in range(50):
        rng = random.Random(seed)
        manager, graph = SensorNetworkManager(), nx.DiGraph()
        ids = [f"n{i}" for i in range(12)]
        for _ in range(80):
            op = rng.random()
            a, b = rng.sample(ids, 2)
            if op < 0.35:
                kind = rng.choice(["COMPOSITE", "ELEMENTARY"])
                manager.register_service(a, a.upper(), kind)
                graph.add_node(a, kind=kind)
            else:
                try:
                    manager.compose(a, b)
                except NetworkModelError:
                    continue
                graph.add_edge(a, b)
        expected = [n for n in reversed(list(nx.topological_sort(graph)))
                    if graph.nodes[n]["kind"] == "COMPOSITE"]
        assert manager.composites_leaves_first() == expected, seed
        assert manager.snapshot()["edges"] == [
            {"parent": u, "child": v} for u, v in sorted(graph.edges)]
