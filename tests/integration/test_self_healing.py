"""Composition plans + self-healing: the logical network survives crashes.

The scenario the fault_tolerant_fleet example does by hand: Rio re-creates
a crashed composite *empty*; with a saved plan and self-healing enabled,
the façade restores its composition and expression automatically.

Also: CSP fault policies under a network *partition* (hosts alive but
mutually unreachable) followed by a heal — the link comes back and queries
must recover on their own, with no breaker or cache stuck in the failed
state.
"""

import numpy as np
import pytest

from repro.jini import LookupService, ServiceTemplate
from repro.jini.entries import Location
from repro.net import FixedLatency, Host, Network
from repro.observability import tracer_of
from repro.resilience import BreakerState, resilience_events
from tests.helpers.tracing import assert_no_orphan_spans, assert_span_tree
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sim import Environment
from repro.sorcer import Exerter, ServiceContext, Signature, Task
from repro.core import (
    STALE_PATH,
    CompositeSensorProvider,
    CompositionPlan,
    ElementarySensorProvider,
    OP_GET_VALUE,
    SENSOR_DATA_ACCESSOR,
)
from repro.scenarios import build_paper_lab


@pytest.fixture
def lab():
    lab = build_paper_lab(seed=404)
    lab.settle(6.0)
    return lab


def run(lab, gen):
    return lab.env.run(until=lab.env.process(gen))


def build_fig3_network(lab):
    browser = lab.browser

    def build():
        yield from browser.compose_service(
            "Composite-Service",
            ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        yield from browser.add_expression("Composite-Service", "(a + b + c)/3")
        yield from browser.create_service("New-Composite")
        yield from browser.compose_service(
            "New-Composite", ["Composite-Service", "Coral-Sensor"])
        yield from browser.add_expression("New-Composite", "(a + b)/2")
        return (yield from browser.get_value("New-Composite"))

    return run(lab, build())


def test_save_plan_captures_live_state(lab):
    build_fig3_network(lab)
    plan = run(lab, lab.browser.save_network_plan())
    assert isinstance(plan, CompositionPlan)
    # Leaves-first: the subnet appears before the network that contains it.
    subnet, network = plan.entries
    assert subnet.composite == "Composite-Service"
    assert subnet.children == ("Neem-Sensor", "Jade-Sensor", "Diamond-Sensor")
    assert subnet.expression == "(a + b + c)/3"
    assert network.composite == "New-Composite"
    assert network.children == ("Composite-Service", "Coral-Sensor")
    assert network.expression == "(a + b)/2"


def heal_once(lab, plan):
    """Enable self-healing and let exactly one healing pass run."""
    run(lab, lab.browser.enable_self_healing(plan))
    lab.env.run(until=lab.env.now + 3.0)
    return lab.facade.healing_actions


def test_apply_plan_is_idempotent(lab):
    build_fig3_network(lab)
    plan = run(lab, lab.browser.save_network_plan())
    assert heal_once(lab, plan) == 0  # everything already matches


def test_apply_plan_restores_wiped_composite(lab):
    build_fig3_network(lab)
    plan = run(lab, lab.browser.save_network_plan())
    # Simulate a restart of the hand-built composite: wipe its state.
    composite = lab.composite
    composite.children = []
    composite.expression = None
    assert heal_once(lab, plan) == 4  # 3 children + 1 expression
    value = run(lab, lab.browser.get_value("New-Composite"))
    assert isinstance(value, float)


def test_apply_plan_refuses_conflicting_order(lab):
    build_fig3_network(lab)
    plan = run(lab, lab.browser.save_network_plan())
    composite = lab.composite
    # Re-order behind the plan's back: variables would shift.
    reordered = list(reversed(composite.children))
    composite.children = list(reordered)
    composite.expression = None
    # The conflicting entry is refused whole: no child added, no expression.
    assert heal_once(lab, plan) == 0
    assert composite.children == reordered
    assert composite.expression is None


def test_self_healing_after_cybernode_crash(lab):
    """End to end: crash the node hosting New-Composite; Rio re-provisions
    it empty; the façade's healing loop restores composition + expression;
    queries work again with no manual intervention."""
    env, browser = lab.env, lab.browser
    build_fig3_network(lab)
    plan = run(lab, lab.browser.save_network_plan())
    run(lab, browser.enable_self_healing(plan))

    # Find and kill the cybernode hosting the provisioned composite.
    def host_of():
        item = yield from browser.accessor.find_one(
            ServiceTemplate.by_name("New-Composite", SENSOR_DATA_ACCESSOR),
            wait=3.0)
        return item.service.host if item else None

    home = run(lab, host_of())
    assert home in ("cybernode-0", "cybernode-1")
    lab.net.hosts[home].fail()

    # Lease lapse (10s) + monitor poll + instantiate + healing round.
    env.run(until=env.now + 40.0)
    new_home = run(lab, host_of())
    assert new_home is not None and new_home != home
    assert lab.facade.healing_actions >= 3  # 2 children + expression

    def verify():
        info = yield from browser.get_info("New-Composite")
        value = yield from browser.get_value("New-Composite")
        return info, value

    info, value = run(lab, verify())
    assert info["contained_services"] == ["Composite-Service", "Coral-Sensor"]
    assert info["expression"] == "(a + b)/2"
    truth = (lab.ground_truth_mean(
        ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
        + lab.world.sample("temperature", (3.0, 9.0), env.now)) / 2
    assert abs(value - truth) < 1.5


def build_partition_grid(fault_policy, **csp_kwargs):
    """Two ESPs + one CSP on separate hosts; returns the pieces needed to
    partition the CSP away from its second child."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(77),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=77)
    LookupService(Host(net, "lus-host")).start()
    esps = []
    for index, location in enumerate([(0.0, 0.0), (60.0, 0.0)]):
        name = f"P{index + 1}"
        probe = TemperatureProbe(env, name.lower(), world, location,
                                 rng=np.random.default_rng(index),
                                 sensing_noise=0.0)
        esp = ElementarySensorProvider(Host(net, f"{name}-host"), name, probe,
                                       sample_interval=1.0,
                                       location=Location(building="Lab"))
        esp.start()
        esps.append(esp)
    csp = CompositeSensorProvider(Host(net, "csp-host"),
                                  f"Composite-{fault_policy}",
                                  fault_policy=fault_policy,
                                  child_wait=1.0, child_timeout=1.0,
                                  **csp_kwargs)
    csp.start()
    for esp in esps:
        csp.add_child(esp.service_id, esp.name)
    env.run(until=3.0)
    return env, net, csp, esps


def query_csp(env, net, csp, tag):
    exerter = Exerter(Host(net, f"ph-client-{tag}"))

    def proc():
        yield env.timeout(2.0)
        task = Task(f"q-{tag}",
                    Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                              service_id=csp.service_id), ServiceContext())
        result = yield env.process(exerter.exert(task))
        return result

    return env.run(until=env.process(proc()))


def test_skip_policy_survives_partition_and_heals():
    env, net, csp, esps = build_partition_grid("skip")
    sides = (["csp-host"], ["P2-host"])
    warm = query_csp(env, net, csp, "skip-warm")
    assert warm.is_done, warm.exceptions

    net.partition(*sides)
    during = query_csp(env, net, csp, "skip-cut")
    # Skip aggregates the reachable child alone — P2 is cut off, not dead.
    assert during.is_done, during.exceptions
    # Repeated failures opened the CSP's breaker for the unreachable child.
    breakers = csp.exerter.breakers
    assert breakers.state_of(esps[1].service_id) is BreakerState.OPEN

    net.heal_partition(*sides)
    env.run(until=env.now + 12.0)  # past the breaker's reset_timeout
    healed = query_csp(env, net, csp, "skip-healed")
    assert healed.is_done, healed.exceptions
    # Nothing stuck: the half-open probe succeeded and closed the breaker.
    assert breakers.state_of(esps[1].service_id) is BreakerState.CLOSED

    # The whole episode is visible in the trace: the cut-off query's tree
    # still links up (no orphan spans even across the partition), and the
    # healed query fans out to both children again.
    tracer = tracer_of(net)
    assert_no_orphan_spans(tracer)
    assert_span_tree(tracer, (
        "exert:q-skip-healed", [
            ("serve:q-skip-healed", [
                ("exert:collect-P1", [("serve:collect-P1", ...)]),
                ("exert:collect-P2", [("serve:collect-P2", ...)]),
            ]),
        ]))


def test_degraded_policy_answers_through_partition_and_recovers():
    env, net, csp, esps = build_partition_grid("degraded",
                                               stale_max_age=120.0)
    csp.set_expression("(a + b)/2")
    sides = (["csp-host"], ["P2-host"])
    warm = query_csp(env, net, csp, "deg-warm")
    assert warm.is_done, warm.exceptions

    net.partition(*sides)
    during = query_csp(env, net, csp, "deg-cut")
    # Both variables stayed bound — b was served from last-known-good.
    assert during.is_done, during.exceptions
    notes = during.context.get_value(STALE_PATH)
    assert [n["child"] for n in notes] == ["P2"]
    assert resilience_events(net).count("stale_substitution") >= 1

    net.heal_partition(*sides)
    env.run(until=env.now + 12.0)
    substitutions_before = resilience_events(net).count("stale_substitution")
    healed = query_csp(env, net, csp, "deg-healed")
    assert healed.is_done, healed.exceptions
    # Fresh data again: no new substitution, no stale flag in the result.
    assert (resilience_events(net).count("stale_substitution")
            == substitutions_before)
    assert healed.context.get_value(STALE_PATH, None) is None
    # The unreachable child's failed collection hops were traced too: the
    # cut-off query's tree contains a failed exert for P2.
    tracer = tracer_of(net)
    assert_no_orphan_spans(tracer)
    [cut_root] = tracer.find(name="exert:q-deg-cut")
    descendants = [s for s in tracer.spans if s.trace_id == cut_root.trace_id]
    failed_p2 = [s for s in descendants
                 if s.name == "exert:collect-P2" and s.status == "failed"]
    assert failed_p2, [s.name for s in descendants]


def test_plan_validation():
    plan = CompositionPlan()
    plan.add("A", ["x", "y"], "(a+b)/2")
    with pytest.raises(ValueError):
        plan.add("A", ["z"])
    assert len(plan.entries) == 1
