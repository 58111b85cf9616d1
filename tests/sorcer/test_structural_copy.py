"""``Exertion.copy`` / ``ServiceContext.copy`` against ``copy.deepcopy``.

The structural copier must hand back what ``copy.deepcopy`` would — equal
field by field, no mutable object shared with the original, aliasing kept —
and must hand anything outside its known shapes *to* ``copy.deepcopy``.
"""

import copy
import enum
from dataclasses import dataclass, is_dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.rpc import RemoteRef
from repro.resilience import Deadline, RetryPolicy
from repro.sensors.probe import Reading
from repro.sorcer import Job, ServiceContext, Signature, Strategy, Task
from repro.sorcer.context import register_plain_shapes, structural_copy
from repro.sorcer.exertion import ExertionStatus, TraceRecord
from tests.helpers.vocabulary import contexts, jobs, tasks

_MUTABLE_BUILTINS = (list, dict, set, bytearray)


def _slots(obj):
    return [name for klass in type(obj).__mro__
            for name in klass.__dict__.get("__slots__", ())]


def _has_state(obj):
    return not isinstance(obj, type) and (
        hasattr(obj, "__dict__") or bool(_slots(obj)))


def _state(obj):
    """An object's attributes: its ``__slots__`` across the MRO and its
    ``__dict__``."""
    state = {name: getattr(obj, name) for name in _slots(obj)}
    state.update(getattr(obj, "__dict__", {}))
    return state


def assert_same(a, b, where="root"):
    """Field-by-field equality of two object graphs (exertions define no
    ``__eq__``, so ``==`` alone would compare identities)."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for index, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{index}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), where
    elif _has_state(a):
        for name, value in _state(a).items():
            assert_same(value, _state(b)[name], f"{where}.{name}")
    else:
        assert a == b, where


def mutable_ids(obj, seen=None):
    """ids of every mutable object reachable from ``obj``."""
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return seen
    frozen = isinstance(obj, enum.Enum) or (
        is_dataclass(obj) and obj.__dataclass_params__.frozen)
    if isinstance(obj, _MUTABLE_BUILTINS) or (_has_state(obj) and not frozen):
        seen[id(obj)] = obj
    if isinstance(obj, dict):
        children = list(obj) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif _has_state(obj):
        children = list(_state(obj).values())
    else:
        children = []
    for child in children:
        mutable_ids(child, seen)
    return seen


def sig(selector="getValue"):
    return Signature("SensorDataAccessor", selector, service_id="id-1")


def rich_task(name="t"):
    ctx = ServiceContext(f"{name}-ctx")
    ctx.put_in_value("arg/list", [1, [2, 3], {"k": (4, [5])}])
    ctx.put_value("arg/dict", {"a": {"b": [1.5]}, "r": RemoteRef("h", "o", ("T",))})
    ctx.put_out_value("result/reading", Reading(21.5, "C", 3.0, "spot-1"))
    ctx.put_value("result/refs", [RemoteRef("h2", "o2"), RemoteRef("h3", "o3")])
    task = Task(name, sig(), ctx, principal="alice")
    task.control.deadline = Deadline(12.5)
    task.control.backoff = RetryPolicy(base_delay=0.1)
    task.trace.append(TraceRecord(name, "prov", "host", 1.0, 2.0, "note"))
    task.report_exception(ValueError("boom"))
    return task


def rich_job():
    inner = Job("inner", [rich_task("leaf")], strategy=Strategy.PARALLEL)
    job = Job("outer", [rich_task("first"), rich_task("second"), inner])
    job.context.put_value("shared/trace", job.trace)
    return job


# -- equal to deepcopy ------------------------------------------------------------------

def test_task_copy_equals_deepcopy_field_by_field():
    task = rich_task()
    assert_same(task.copy(), copy.deepcopy(task))
    assert_same(task.copy(), task)


def test_nested_job_copy_equals_deepcopy_field_by_field():
    job = rich_job()
    dup = job.copy()
    assert_same(dup, copy.deepcopy(job))
    assert dup.component("inner").component("leaf").control.deadline == Deadline(12.5)


@given(st.one_of(tasks(), jobs()))
def test_generated_exertions_copy_as_deepcopy_does(exertion):
    dup = exertion.copy()
    assert_same(dup, copy.deepcopy(exertion))
    assert not set(mutable_ids(dup)) & set(mutable_ids(exertion))


@given(contexts())
def test_generated_contexts_copy_as_deepcopy_does(ctx):
    dup = ctx.copy()
    assert_same(dup, copy.deepcopy(ctx))
    assert not set(mutable_ids(dup)) & set(mutable_ids(ctx))


# -- nothing mutable shared ----------------------------------------------------------------

def test_copy_shares_no_mutable_object_with_the_original():
    job = rich_job()
    assert not set(mutable_ids(job.copy())) & set(mutable_ids(job))


def test_mutating_the_copy_leaves_the_original_alone():
    task = rich_task()
    before = copy.deepcopy(task)
    dup = task.copy()

    dup.context.get_value("arg/list")[1].append(99)
    dup.context.get_value("arg/list")[2]["k"][1].append(99)
    dup.context.get_value("arg/dict")["a"]["b"].clear()
    dup.context.get_value("arg/dict")["new"] = 1
    dup.context.put_value("extra", 1)
    dup.context._in_paths.add("extra")
    dup.context._out_paths.clear()
    dup.trace[0].note = "changed"
    dup.trace.append(TraceRecord("x", "p", "h", 0.0, 0.0))
    dup.control.retries = 7
    dup.control.strategy = Strategy.PARALLEL
    dup.exceptions.append("another")
    dup.status = ExertionStatus.DONE

    assert_same(task, before)
    assert task.context.in_paths() == ["arg/list"]
    assert task.context.out_paths() == ["result/reading"]


def test_mutating_a_job_copy_leaves_components_alone():
    job = rich_job()
    before = copy.deepcopy(job)
    dup = job.copy()
    dup.exertions.pop()
    dup.component("first").context.get_value("arg/list").append("x")
    assert_same(job, before)


def test_context_copy_is_independent():
    ctx = rich_task().context
    before = copy.deepcopy(ctx)
    dup = ctx.copy()
    dup.get_value("arg/list").append(1)
    dup.put_value("arg/dict", None)
    dup.set_return_path("other/path")
    assert_same(ctx, before)


# -- immutable leaves are shared, and only those ------------------------------------------

def test_frozen_value_objects_are_shared():
    task = rich_task()
    dup = task.copy()
    assert dup.signature is task.signature
    assert dup.control.deadline is task.control.deadline
    assert dup.control.backoff is task.control.backoff
    assert (dup.context.get_value("result/reading")
            is task.context.get_value("result/reading"))
    assert (dup.context.get_value("arg/dict")["r"]
            is task.context.get_value("arg/dict")["r"])
    assert dup.status is task.status


@dataclass(frozen=True)
class FrozenHolder:
    label: str
    items: list


def test_a_frozen_dataclass_holding_something_mutable_is_copied():
    holder = FrozenHolder("h", [1, 2])
    ctx = ServiceContext("c").put_value("holder", holder)
    ctx.put_value("items", holder.items)
    dup = ctx.copy()
    copied = dup.get_value("holder")
    assert copied == holder and copied is not holder
    assert copied.items is not holder.items
    assert copied.items is dup.get_value("items")  # aliasing survives it


def test_tuples_are_shared_only_when_immutable_all_the_way_down():
    flat, holding = (1, "a", (2.0, None)), (1, [2])
    ctx = ServiceContext("c").put_value("flat", flat)
    ctx.put_value("holding", holding)
    dup = ctx.copy()
    assert dup.get_value("flat") is flat
    assert dup.get_value("holding") == holding
    assert dup.get_value("holding")[1] is not holding[1]


# -- aliasing --------------------------------------------------------------------------------

def test_two_paths_holding_one_list_still_hold_one_list():
    shared = [1, 2]
    task = Task("t", sig())
    task.context.put_value("a", shared)
    task.context.put_value("b/c", {"again": shared})
    dup = task.copy()
    assert dup.context.get_value("a") is dup.context.get_value("b/c")["again"]
    assert dup.context.get_value("a") is not shared
    dup.context.get_value("a").append(3)
    assert dup.context.get_value("b/c")["again"] == [1, 2, 3]
    assert shared == [1, 2]


def test_aliasing_holds_between_known_shapes_and_the_fallback():
    class Opaque:
        def __init__(self, items):
            self.items = items

    shared = ["s"]
    task = Task("t", sig())
    task.context.put_value("first", shared)
    task.context.put_value("opaque", Opaque(shared))
    task.context.put_value("last", shared)
    dup = task.copy()
    assert type(dup.context.get_value("opaque")) is Opaque
    assert dup.context.get_value("opaque") is not task.context.get_value("opaque")
    assert dup.context.get_value("opaque").items is dup.context.get_value("first")
    assert dup.context.get_value("last") is dup.context.get_value("first")
    assert dup.context.get_value("first") is not shared


def test_job_trace_aliased_from_its_own_context():
    job = rich_job()
    dup = job.copy()
    assert dup.context.get_value("shared/trace") is dup.trace
    assert dup.trace is not job.trace


def test_self_referential_containers():
    loop = [1]
    loop.append(loop)
    knot = ([],)
    knot[0].append(knot)
    ctx = ServiceContext("c").put_value("loop", loop)
    ctx.put_value("knot", knot)
    dup = ctx.copy()
    assert dup.get_value("loop")[1] is dup.get_value("loop")
    assert dup.get_value("loop") is not loop
    copied = dup.get_value("knot")
    assert copied is not knot and copied[0][0] is copied


# -- outside the known shapes: copy.deepcopy ------------------------------------------------

def test_an_exertion_subclass_takes_the_fallback(monkeypatch):
    class AuditedTask(Task):
        pass

    handed_over = []
    real = copy.deepcopy

    def recording(value, memo=None):
        handed_over.append(type(value))
        return real(value, memo)

    # The table keeps the function it finds at classification time, and
    # AuditedTask has never been classified.
    monkeypatch.setattr(copy, "deepcopy", recording)
    task = AuditedTask("t", sig(), rich_task().context)
    dup = task.copy()
    assert handed_over == [AuditedTask]
    assert type(dup) is AuditedTask
    assert_same(dup, real(task))
    assert not set(mutable_ids(dup)) & set(mutable_ids(task))


def test_a_subclass_copy_hook_is_honoured():
    class Stamped(Task):
        def __deepcopy__(self, memo):
            dup = Stamped(self.name, self.signature)
            dup.stamp = "copied by hook"
            return dup

    assert Stamped("t", sig()).copy().stamp == "copied by hook"
    job = Job("j", [Stamped("t", sig())])
    assert job.copy().component("t").stamp == "copied by hook"


def test_a_context_subclass_takes_the_fallback():
    class TaggedContext(ServiceContext):
        __slots__ = ("tag",)

    ctx = TaggedContext("c").put_value("a", [1])
    ctx.tag = ["t"]
    dup = ctx.copy()
    assert type(dup) is TaggedContext
    assert dup.tag == ["t"] and dup.tag is not ctx.tag
    assert dup.get_value("a") == [1] and dup.get_value("a") is not ctx.get_value("a")


def test_unknown_value_types_are_deep_copied():
    array = np.arange(4.0)
    task = Task("t", sig())
    task.context.put_value("array", array)
    task.context.put_value("frozen", frozenset({1, 2}))
    task.context.put_value("bytes", bytearray(b"ab"))
    dup = task.copy()
    assert np.array_equal(dup.context.get_value("array"), array)
    assert dup.context.get_value("array") is not array
    assert dup.context.get_value("frozen") == frozenset({1, 2})
    assert dup.context.get_value("bytes") == bytearray(b"ab")
    assert dup.context.get_value("bytes") is not task.context.get_value("bytes")


def test_structural_copy_takes_a_shared_memo():
    shared = [1]
    memo = {}
    first = structural_copy({"x": shared}, memo)
    second = structural_copy([shared], memo)
    assert first["x"] is second[0]
    assert copy.deepcopy(shared, memo) is first["x"]


def test_only_slotted_classes_register_as_plain_shapes():
    class Loose:
        pass

    with pytest.raises(TypeError):
        register_plain_shapes(Loose)
