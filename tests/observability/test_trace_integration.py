"""End-to-end tracing: whole federated requests fold into one span tree.

Exercises the wiring across the stack — facade, jobber, exerter, RPC,
CSP → child ESP — through the trace-based assertion helpers.
"""

import numpy as np
import pytest

from repro.core import (
    CompositeSensorProvider,
    ElementarySensorProvider,
    OP_GET_VALUE,
    SENSOR_DATA_ACCESSOR,
)
from repro.jini import LookupService
from repro.net import FixedLatency, Host, Network
from repro.observability import metrics_registry, tracer_of
from repro.scenarios import build_paper_lab
from repro.sensors import PhysicalEnvironment, TemperatureProbe
from repro.sim import Environment
from repro.sorcer import (
    Exerter,
    Job,
    Jobber,
    ServiceContext,
    ServiceProvider,
    Signature,
    Task,
)
from tests.helpers.tracing import (
    assert_no_orphan_spans,
    assert_span_tree,
    spans_between,
    tree_shape,
)


def build_sensor_grid():
    """LUS + 2 ESPs + 1 CSP, all traced."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(11),
                  latency=FixedLatency(0.001))
    world = PhysicalEnvironment(seed=11)
    LookupService(Host(net, "lus-host")).start()
    esps = []
    for index in range(2):
        name = f"S{index + 1}"
        probe = TemperatureProbe(env, name.lower(), world,
                                 (10.0 * index, 0.0),
                                 rng=np.random.default_rng(index),
                                 sensing_noise=0.0)
        esp = ElementarySensorProvider(Host(net, f"{name}-host"), name, probe,
                                       sample_interval=1.0)
        esp.start()
        esps.append(esp)
    csp = CompositeSensorProvider(Host(net, "csp-host"), "Composite")
    csp.start()
    for esp in esps:
        csp.add_child(esp.service_id, esp.name)
    env.run(until=3.0)
    return env, net, csp, esps


def exert_get_value(env, net, csp):
    exerter = Exerter(Host(net, "client-host"))
    task = Task("query", Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                                   service_id=csp.service_id),
                ServiceContext())
    return env.run(until=env.process(exerter.exert(task)))


def test_csp_query_produces_one_linked_tree():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    result = exert_get_value(env, net, csp)
    assert result.is_done, result.exceptions
    root = assert_span_tree(tracer, (
        "exert:query", [
            ("rpc:service", []),
            ("serve:query", [
                ("exert:collect-S1", [
                    ("rpc:service", []),
                    ("serve:collect-S1", ...),
                ]),
                ("exert:collect-S2", [
                    ("rpc:service", []),
                    ("serve:collect-S2", ...),
                ]),
            ]),
        ]))
    assert root.kind == "exert" and root.host == "client-host"
    # Every span in the tree shares the root's trace id and closed ok.
    tree = [s for s in tracer.spans if s.trace_id == root.trace_id]
    assert len(tree) >= 9
    assert all(s.status == "ok" for s in tree)
    assert_no_orphan_spans(tracer)


def test_serve_span_runs_on_the_provider_host():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    exert_get_value(env, net, csp)
    [serve] = tracer.find(name="serve:query")
    assert serve.host == "csp-host"
    assert serve.attributes["provider"] == "Composite"
    [child_serve] = tracer.find(name="serve:collect-S1")
    assert child_serve.host == "S1-host"


def test_spans_between_windows_by_start_time():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    started = env.now
    exert_get_value(env, net, csp)
    window = spans_between(tracer, started, env.now, kind="exert")
    assert {s.name for s in window} == {
        "exert:query", "exert:collect-S1", "exert:collect-S2"}
    assert spans_between(tracer, env.now + 1, env.now + 2) == []


def test_metrics_populated_by_the_run():
    env, net, csp, esps = build_sensor_grid()
    registry = metrics_registry(net)
    result = exert_get_value(env, net, csp)
    assert result.is_done
    assert registry.value("rpc.calls", host="client-host") >= 1
    assert registry.value("provider.served", provider="Composite") == 1
    assert registry.value("provider.served", provider="S1") == 1
    assert registry.value("esp.samples", provider="S1") >= 1
    lat = registry.histogram("exertion.latency", host="client-host")
    assert lat.count == 1 and lat.mean > 0
    inflight = registry.gauge("provider.inflight", provider="Composite")
    assert inflight.value == 0 and inflight.max_value >= 1


def test_retry_annotations_land_on_the_exert_span():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    net.partition(["client-host"], ["csp-host"])

    exerter = Exerter(Host(net, "client-host"))
    task = Task("cut-query", Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                                       service_id=csp.service_id),
                ServiceContext())
    task.control.retries = 2
    task.control.invocation_timeout = 0.5
    result = env.run(until=env.process(exerter.exert(task)))
    assert result.is_failed
    [root] = tracer.find(name="exert:cut-query")
    assert root.status == "failed"
    retries = [a for a in root.annotations if a[1] == "retry_scheduled"]
    assert len(retries) == 2
    # The timed-out RPC attempts hang under the same exert span.
    rpc_children = [s for s in tracer.children(root) if s.kind == "rpc"]
    assert len(rpc_children) == 3
    assert all(s.status == "timeout" for s in rpc_children)
    assert metrics_registry(net).value("rpc.timeouts",
                                       host="client-host") >= 3


def test_jobber_components_nest_under_its_serve_span():
    env = Environment()
    net = Network(env, rng=np.random.default_rng(5),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    Jobber(Host(net, "jobber-host")).start()
    class Doubler(ServiceProvider):
        SERVICE_TYPES = ("Doubler",)

    worker = Doubler(Host(net, "worker-host"), "Worker")
    worker.add_operation("double", lambda ctx: ctx.get_value("arg/x") * 2)
    worker.start()
    env.run(until=3.0)
    tracer = tracer_of(net)
    tracer.reset()

    def component(name, x):
        ctx = ServiceContext()
        ctx.put_in_value("arg/x", x)
        return Task(name, Signature("Doubler", "double"), ctx)

    job = Job("batch", [component("one", 1), component("two", 2)])
    exerter = Exerter(Host(net, "client-host"))
    result = env.run(until=env.process(exerter.exert(job)))
    assert result.is_done, result.exceptions
    assert_span_tree(tracer, (
        "exert:batch", [
            ("serve:batch", [
                ("exert:one", [("serve:one", ...)]),
                ("exert:two", [("serve:two", ...)]),
            ]),
        ]))
    assert_no_orphan_spans(tracer)


def test_facade_request_traces_down_to_the_esp():
    lab = build_paper_lab(seed=321)
    lab.settle(6.0)
    tracer = tracer_of(lab.net)

    def build():
        yield from lab.browser.compose_service(
            "Composite-Service", ["Neem-Sensor", "Jade-Sensor"])
        return (yield from lab.browser.get_value("Composite-Service"))

    tracer.reset()
    value = lab.env.run(until=lab.env.process(build()))
    assert isinstance(value, float)
    # Browser -> facade -> CSP -> child ESP: one tree, four layers deep.
    assert_span_tree(tracer, (
        "exert:browser-getValue", [
            ("serve:browser-getValue", [
                ("exert:facade-getValue", [
                    ("serve:facade-getValue", [
                        ("exert:collect-Neem-Sensor", [
                            ("serve:collect-Neem-Sensor", ...)]),
                        ("exert:collect-Jade-Sensor", [
                            ("serve:collect-Jade-Sensor", ...)]),
                    ]),
                ]),
            ]),
        ]))
    assert_no_orphan_spans(tracer)


def test_mismatched_tree_fails_with_a_useful_message():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    exert_get_value(env, net, csp)
    with pytest.raises(AssertionError, match="no recorded trace matches"):
        assert_span_tree(tracer, ("exert:nonexistent", []))
    root = tracer.find(name="exert:query")[0]
    with pytest.raises(AssertionError, match="no child matching"):
        assert_span_tree(tracer, ("exert:query", [("serve:other", [])]),
                         root=root)


def test_tree_shape_is_hashable_and_stable():
    env, net, csp, esps = build_sensor_grid()
    tracer = tracer_of(net)
    tracer.reset()
    exert_get_value(env, net, csp)
    root = tracer.find(name="exert:query")[0]
    shape = tree_shape(tracer, root)
    assert shape[0] == "exert:query" and shape[1] == "ok"
    hash(shape)  # nested tuples: usable as a determinism fingerprint
