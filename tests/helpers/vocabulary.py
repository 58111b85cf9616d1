"""Hypothesis strategies over the vocabulary that really crosses the simulated
wire and the provider boundary: scalars (non-ASCII text too), nested
containers, the frozen value objects, contexts, tasks and nested jobs. Shared
by the sizing oracle (``tests/net/test_wire_oracle.py``) and the copy
equivalence suite (``tests/sorcer/test_structural_copy.py``)."""

from hypothesis import strategies as st

from repro.jini import Location, Name, SensorType, ServiceItem, ServiceTemplate
from repro.net.rpc import RemoteRef
from repro.resilience import Deadline, RetryPolicy
from repro.sensors.probe import Reading
from repro.sorcer import Job, ServiceContext, Signature, Task
from repro.sorcer.exertion import TraceRecord

words = st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=12)
texts = st.one_of(words, st.text(max_size=12))  # the second is non-ASCII too
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False), texts, st.binary(max_size=16))
hashables = st.one_of(st.integers(), texts, st.booleans(), st.none())

remote_refs = st.builds(RemoteRef, host=words, object_id=words,
                        type_names=st.lists(words, max_size=4).map(tuple))
readings = st.builds(Reading, value=st.floats(allow_nan=False), unit=texts,
                     timestamp=st.floats(min_value=0, max_value=1e6),
                     sensor_id=texts,
                     quality=st.sampled_from(["good", "clamped", "suspect"]))
entries = st.one_of(
    st.builds(Name, name=st.none() | texts),
    st.builds(Location, floor=st.none() | texts, room=st.none() | texts,
              building=st.none() | texts),
    st.builds(SensorType, quantity=st.none() | words, unit=st.none() | words))
service_items = st.builds(ServiceItem, service_id=words, service=remote_refs,
                          attributes=st.lists(entries, max_size=3).map(tuple))
service_templates = st.builds(
    ServiceTemplate, service_id=st.none() | words,
    types=st.lists(words, max_size=3).map(tuple),
    attributes=st.lists(entries, max_size=2).map(tuple))
values = st.one_of(scalars, remote_refs, readings, service_items,
                   service_templates)

payloads = st.recursive(
    values,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashables, children, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4)),
    max_leaves=12)

paths = st.lists(words, min_size=1, max_size=3).map("/".join)


@st.composite
def contexts(draw):
    ctx = ServiceContext(draw(texts) or "ctx")
    for path, value in draw(st.dictionaries(paths, payloads, max_size=5)).items():
        draw(st.sampled_from([ctx.put_value, ctx.put_in_value,
                              ctx.put_out_value]))(path, value)
    return ctx


signatures = st.builds(
    Signature, service_type=words, selector=words,
    provider_name=st.none() | texts, service_id=st.none() | words,
    attributes=st.lists(entries, max_size=2).map(tuple),
    provision=st.booleans())


@st.composite
def tasks(draw):
    task = Task(draw(words), draw(signatures), draw(contexts()),
                principal=draw(words))
    task.control.deadline = draw(st.none() | st.builds(
        Deadline, st.floats(min_value=0, max_value=1e6)))
    task.control.backoff = draw(st.none() | st.just(RetryPolicy()))
    for note in draw(st.lists(texts, max_size=2)):
        task.trace.append(TraceRecord(task.name, "p", "h", 0.5, 1.5, note))
        task.report_exception(note)
    return task


@st.composite
def jobs(draw):
    job = Job(draw(words), context=draw(contexts()))
    components = draw(st.lists(tasks(), max_size=3,
                               unique_by=lambda t: t.name))
    for task in components:
        job.add(task)
    if draw(st.booleans()):
        job.add(Job("inner-job", [Task("inner-task", draw(signatures))]))
    return job
