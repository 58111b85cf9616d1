"""The column-store tracer against the list-backed one it replaced.

``reference_tracer.Tracer`` is the old tracer, verbatim. Random sequences
of start / annotate / set_attribute / end / reset, with unknown and
dangling parents, spans left open and attribute values that are equal
across types, drive both on one clock; after every step every reader must
agree. The fold batch is cut to a few spans so a short sequence folds many
times; one long run keeps the shipped batch. Two planted fold mutants —
one drops annotations, one swaps start and end — must fail the same check.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.observability import Tracer, trace_to_jsonl
from repro.sim import Environment

from tests.observability import reference_tracer

NAMES = ("exert:q", "rpc:service", "serve:q")
KINDS = ("exert", "rpc", "serve", "span")
HOSTS = (None, "h1", "h2")
VALUES = st.sampled_from(["a", "b", 1, 1.0, True, 0, 0.0, False, None])
INDEX = st.integers(min_value=0, max_value=12)

# A parent is an earlier span by index (an index past the last span is an
# id no span has), no parent, or a raw id: 0, negative or far off.
OPS = st.one_of(
    st.tuples(st.just("start"), st.sampled_from(NAMES),
              st.sampled_from(KINDS), st.sampled_from(HOSTS),
              st.one_of(st.none(), INDEX,
                        st.sampled_from([("id", 0), ("id", -1),
                                         ("id", 999)])),
              st.dictionaries(st.sampled_from(["peer", "msg_kind", "n"]),
                              VALUES, max_size=2)),
    st.tuples(st.just("annotate"), INDEX, st.sampled_from(["retry", "skip"]),
              st.dictionaries(st.sampled_from(["attempt", "delay"]), VALUES,
                              max_size=2)),
    st.tuples(st.just("set_attribute"), INDEX,
              st.sampled_from(["instance", "peer"]), VALUES),
    st.tuples(st.just("end"), INDEX, st.sampled_from(["ok", "failed"])),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 1.5])),
    st.tuples(st.just("reset")),
)


def _dicts(spans) -> list:
    return [span.to_dict() for span in spans]


def assert_readers_agree(ref, new) -> None:
    assert len(new) == len(ref)
    assert trace_to_jsonl(new) == reference_tracer.trace_to_jsonl(ref)
    assert _dicts(new.spans) == _dicts(ref.spans)
    assert _dicts(new.roots()) == _dicts(ref.roots())
    assert _dicts(new.open_spans()) == _dicts(ref.open_spans())
    for name in NAMES:
        assert _dicts(new.find(name=name)) == _dicts(ref.find(name=name))
    for kind in KINDS:
        assert (_dicts(new.find(lambda s: s.host, kind=kind))
                == _dicts(ref.find(lambda s: s.host, kind=kind)))
    for span_id in range(-1, len(ref) + 3):
        assert _dicts(new.children(span_id)) == _dicts(ref.children(span_id))
        got, want = new.get(span_id), ref.get(span_id)
        assert (got and got.to_dict()) == (want and want.to_dict())


def run_against_reference(ops, tracer_cls=Tracer, batch=3,
                          every_step=True):
    env = Environment()
    ref, new = reference_tracer.Tracer(env), tracer_cls(env)
    new.COMPACT_BATCH = batch
    pairs = []  # every (reference span, span) started, resets included
    for op in ops:
        verb = op[0]
        if verb == "start":
            _, name, kind, host, parent, attributes = op
            if isinstance(parent, tuple):
                parent_id = parent[1]
            elif parent is None:
                parent_id = None
            elif parent < len(pairs):
                parent_id = pairs[parent][0].span_id
            else:
                parent_id = 1000 + parent
            pairs.append((
                ref.start_span(name, kind, host, parent_id, **attributes),
                new.start_span(name, kind, host, parent_id, **attributes)))
        elif verb == "advance":
            env.run(until=env.now + op[1])
        elif verb == "reset":
            ref.reset()
            new.reset()
        elif op[1] < len(pairs):
            want, got = pairs[op[1]]
            if verb == "end":
                want.end(op[2])
                got.end(op[2])
            elif want.ended_at is not None:  # an ended span refuses writes
                with pytest.raises(ValueError):
                    got.annotate("late")
            elif verb == "annotate":
                want.annotate(op[2], **op[3])
                got.annotate(op[2], **op[3])
            else:
                want.set_attribute(op[2], op[3])
                got.set_attribute(op[2], op[3])
        if every_step:
            assert_readers_agree(ref, new)
    assert_readers_agree(ref, new)
    return pairs


START = ("start", "serve:q", "serve", "h1", None)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=60))
# Equal attribute values of three types, each folded.
@example([START + ({"n": 1},), START + ({"n": 1.0},), START + ({"n": True},),
          ("end", 0, "ok"), ("end", 1, "ok"), ("end", 2, "ok")])
# A span opened before a reset ends after it, among spans reusing its id.
@example([START + ({},), ("reset",), START + ({},), START + ({},),
          ("end", 0, "ok"), ("end", 1, "ok"), ("end", 2, "ok")])
def test_every_reader_agrees_with_the_list_backed_tracer(ops):
    run_against_reference(ops)


def _hops(count: int) -> list:
    """Three-span hops (exert → rpc → serve), each serve annotated, ended
    inner-first over advancing time; every fourth root is left open."""
    ops = []
    for hop in range(count):
        root, rpc, serve = 3 * hop, 3 * hop + 1, 3 * hop + 2
        ops += [("start", "exert:q", "exert", "h1", None, {}),
                ("start", "rpc:service", "rpc", "h1", root,
                 {"peer": "h2", "msg_kind": "exert"}),
                ("start", "serve:q", "serve", "h2", rpc, {"n": hop % 3}),
                ("advance", 0.25),
                ("annotate", serve, "retry", {"attempt": hop}),
                ("end", serve, "ok"),
                ("advance", 0.25),
                ("end", rpc, "ok" if hop % 5 else "failed")]
        if hop % 4:
            ops.append(("end", root, "ok"))
    return ops


def test_the_shipped_batch_folds_three_times_and_agrees():
    pairs = run_against_reference(_hops(Tracer.COMPACT_BATCH + 40),
                                  batch=Tracer.COMPACT_BATCH,
                                  every_step=False)
    closed = sum(1 for span, _ in pairs if span.ended_at is not None)
    assert closed > 3 * Tracer.COMPACT_BATCH


class DropsAnnotations(Tracer):
    def _fold(self):
        super()._fold()
        self._notes.clear()


class SwapsStartAndEnd(Tracer):
    def _fold(self):
        rows = [span.span_id - 1 for span in self._closed]
        super()._fold()
        for row in rows:
            self._starts[row], self._ends[row] = \
                self._ends[row], self._starts[row]


@pytest.mark.parametrize("mutant", [DropsAnnotations, SwapsStartAndEnd])
def test_planted_fold_mutants_fail_the_oracle(mutant):
    ops = _hops(4)
    run_against_reference(ops)  # the shipped fold passes ...
    with pytest.raises(AssertionError):  # ... and the mutant does not
        run_against_reference(ops, mutant)
