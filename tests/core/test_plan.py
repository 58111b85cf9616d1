"""Unit tests for composition plans (the declarative network state)."""

import pytest

from repro.core import CompositionPlan
from repro.core.plan import PlanEntry


def test_add_builds_ordered_entries():
    plan = CompositionPlan()
    plan.add("Subnet", ["s1", "s2"], "(a+b)/2").add("Network",
                                                    ["Subnet", "s3"])
    subnet, network = plan.entries  # leaves-first order
    assert (subnet.composite, network.composite) == ("Subnet", "Network")
    assert subnet.children == ("s1", "s2")
    assert subnet.expression == "(a+b)/2"
    assert network.expression is None


def test_children_are_frozen_as_tuples():
    children = ["a", "b"]
    plan = CompositionPlan().add("C", children)
    children.append("c")  # later mutation must not leak into the plan
    assert plan.entries[0].children == ("a", "b")
    with pytest.raises(Exception):  # frozen dataclass
        plan.entries[0].children = ()


def test_duplicate_composite_rejected():
    plan = CompositionPlan().add("C", ["x"])
    with pytest.raises(ValueError):
        plan.add("C", ["y"])
    assert len(plan.entries) == 1  # the failed add left no partial entry


def test_entries_compare_by_value():
    assert PlanEntry("C", ("a",), "a") == PlanEntry("C", ("a",), "a")
    assert PlanEntry("C", ("a",)) != PlanEntry("C", ("b",))
