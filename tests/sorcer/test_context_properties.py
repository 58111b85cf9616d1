"""Property-based tests for ServiceContext structure operations."""

from hypothesis import given, strategies as st

from repro.sorcer import ServiceContext

segment = st.text(alphabet="abcdefg", min_size=1, max_size=4)
paths = st.builds("/".join, st.lists(segment, min_size=1, max_size=4))
values = st.one_of(st.integers(), st.floats(allow_nan=False),
                   st.text(max_size=8))


def context_of(data):
    ctx = ServiceContext()
    for path, value in data.items():
        ctx.put_value(path, value)
    return ctx


@given(st.dictionaries(paths, values, max_size=12))
def test_put_get_roundtrip(data):
    ctx = context_of(data)
    for path, value in data.items():
        assert ctx.get_value(path) == value
    assert len(ctx) == len(data)


@given(st.dictionaries(paths, values, max_size=12))
def test_copy_independent(data):
    ctx = context_of(data)
    dup = ctx.copy()
    for path in list(data):
        dup.put_value(path, object())
    for path, value in data.items():
        assert ctx.get_value(path) == value


@given(st.dictionaries(paths, values, max_size=12))
def test_paths_sorted_and_complete(data):
    ctx = context_of(data)
    assert ctx.paths() == sorted(data.keys())
