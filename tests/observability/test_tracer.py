"""Unit tests for spans and the simulation-time tracer."""

import pytest

from repro.observability import (
    NULL_SPAN,
    TRACE_PARENT_PATH,
    Tracer,
    propagate_trace,
    render_span_tree,
    tracer_of,
)
from repro.sim import Environment
from repro.sorcer import ServiceContext


@pytest.fixture
def tracer():
    return Tracer(Environment())


def test_span_ids_and_trace_ids_are_counters(tracer):
    a = tracer.start_span("a")
    b = tracer.start_span("b", parent_id=a.span_id)
    c = tracer.start_span("c")
    assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)
    assert a.trace_id == b.trace_id == 1  # b joins a's trace
    assert c.trace_id == 3  # a root's trace id is its own span id


def test_parent_child_links(tracer):
    root = tracer.start_span("root")
    child = tracer.start_span("child", parent_id=root.span_id)
    assert child.parent_id == root.span_id
    assert tracer.roots() == [root]
    assert tracer.children(root) == [child]
    assert tracer.children(child) == []


def test_dangling_parent_becomes_root(tracer):
    span = tracer.start_span("lost", parent_id=999)
    assert span.parent_id is None
    assert tracer.roots() == [span]


def test_span_timing_and_status(tracer):
    env = tracer.env
    span = tracer.start_span("work")
    assert span.status == "open" and span.duration is None
    env.run(until=2.5)
    span.end("failed")
    assert span.ended_at == 2.5 and span.duration == 2.5
    assert span.status == "failed"
    # end() is idempotent: the first close wins.
    env.run(until=3.0)
    span.end("ok")
    assert span.ended_at == 2.5 and span.status == "failed"


def test_annotations_are_clock_stamped_tuples(tracer):
    span = tracer.start_span("work")
    tracer.env.run(until=1.0)
    span.annotate("retry_scheduled", attempt=0, delay=0.25)
    assert span.annotations == [
        (1.0, "retry_scheduled", (("attempt", 0), ("delay", 0.25)))]


def test_disabled_tracer_hands_out_null_span(tracer):
    tracer.enabled = False
    span = tracer.start_span("ignored")
    assert span is NULL_SPAN
    assert span.span_id is None
    # The whole surface no-ops.
    span.annotate("x", a=1).set_attribute("k", "v").end("failed")
    assert len(tracer) == 0


def test_span_is_a_context_manager(tracer):
    env = tracer.env
    # An exception leaving the block ends an open span as "error" at the
    # current instant, and propagates.
    with pytest.raises(KeyError):
        with tracer.start_span("escaped") as escaped:
            env.run(until=1.5)
            raise KeyError("unmodelled")
    assert (escaped.status, escaped.ended_at) == ("error", 1.5)
    # A span the body already ended keeps its status and end time.
    with tracer.start_span("done") as done:
        done.end("ok")
        env.run(until=2.0)
    assert (done.status, done.ended_at) == ("ok", 1.5)
    with pytest.raises(KeyError):
        with tracer.start_span("failed") as failed:
            failed.end("failed")
            raise KeyError("after end")
    assert (failed.status, failed.ended_at) == ("failed", 2.0)
    # The null span takes part too, and still lets the exception through.
    with pytest.raises(KeyError):
        with NULL_SPAN as null:
            assert null is NULL_SPAN
            raise KeyError("null")
    assert NULL_SPAN.status == "null" and NULL_SPAN.ended_at is None


def test_find_and_open_spans(tracer):
    a = tracer.start_span("a", kind="exert")
    b = tracer.start_span("b", kind="rpc")
    b.end()
    assert tracer.find(kind="exert") == [a]
    assert tracer.find(name="b") == [b]
    assert tracer.open_spans() == [a]


def test_an_ended_span_refuses_writes(tracer):
    span = tracer.start_span("work", peer="h2")
    span.annotate("note")
    span.end()
    with pytest.raises(ValueError, match="has ended"):
        span.annotate("late")
    with pytest.raises(ValueError, match="has ended"):
        span.set_attribute("peer", "h3")
    assert span.attributes == {"peer": "h2"}
    assert [name for _t, name, _f in span.annotations] == ["note"]


def test_a_folded_span_reads_back_equal_to_the_one_its_creator_held(tracer):
    tracer.COMPACT_BATCH = 2
    root = tracer.start_span("exert:q", kind="exert", host="h1", peer="h2")
    root.annotate("retry_scheduled", attempt=0)
    tracer.env.run(until=1.0)
    root.end("failed")
    tracer.start_span("other").end()  # the second closed span: a fold
    view = tracer.get(root.span_id)
    assert view is not root
    assert view == root and hash(view) == hash(root) and {view} == {root}
    assert view.to_dict() == root.to_dict()
    # A child of a folded span joins its trace.
    child = tracer.start_span("rpc:service", parent_id=root.span_id)
    assert (child.parent_id, child.trace_id) == (root.span_id, root.trace_id)
    assert tracer.children(root) == [child]
    # Another tracer's span 1 is another span.
    assert Tracer(tracer.env).start_span("exert:q") != root


def test_reset_restarts_id_counters(tracer):
    stale = tracer.start_span("a")
    tracer.reset()
    assert len(tracer) == 0
    fresh = tracer.start_span("b")
    assert fresh.span_id == 1 and fresh != stale
    # The span opened before the reset ends into nothing.
    stale.end()
    assert tracer.open_spans() == [fresh]


def test_tracer_of_is_a_per_network_singleton():
    class FakeNetwork:
        env = Environment()
        shared = {}

    net = FakeNetwork()
    assert tracer_of(net) is tracer_of(net)


def test_propagate_trace_copies_parent_link():
    src, dst = ServiceContext("src"), ServiceContext("dst")
    propagate_trace(src, dst)  # no link: no-op
    assert dst.get_value(TRACE_PARENT_PATH, None) is None
    src.put_value(TRACE_PARENT_PATH, 7)
    propagate_trace(src, dst)
    assert dst.get_value(TRACE_PARENT_PATH) == 7


def test_render_span_tree_indents_children(tracer):
    root = tracer.start_span("exert:q", kind="exert", host="h1")
    tracer.start_span("rpc:service", kind="rpc", parent_id=root.span_id).end()
    root.annotate("retry_scheduled", attempt=0)
    root.end()
    text = render_span_tree(tracer)
    lines = text.splitlines()
    assert lines[0].startswith("exert:q [exert] @h1")
    assert any(line.startswith("  * ") and "retry_scheduled" in line
               for line in lines)
    assert any(line.startswith("  rpc:service [rpc]") for line in lines)
    # Annotations can be switched off for terse output.
    assert "retry_scheduled" not in render_span_tree(tracer,
                                                     annotations=False)


def test_to_dict_round_trips_all_fields(tracer):
    span = tracer.start_span("exert:q", kind="exert", host="h1", peer="h2")
    span.annotate("note", detail=1)
    span.end()
    data = span.to_dict()
    assert data["span_id"] == 1 and data["trace_id"] == 1
    assert data["attributes"] == {"peer": "h2"}
    assert data["annotations"] == [
        {"time": 0.0, "name": "note", "fields": {"detail": 1}}]
