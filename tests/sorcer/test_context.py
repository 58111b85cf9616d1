"""ServiceContext semantics."""

import pytest

from repro.sorcer import ContextError, ServiceContext


def test_put_get_roundtrip():
    ctx = ServiceContext()
    ctx.put_value("a/b/c", 42)
    assert ctx.get_value("a/b/c") == 42


def test_missing_path_raises():
    ctx = ServiceContext("test")
    with pytest.raises(ContextError):
        ctx.get_value("nope")


def test_missing_path_default():
    ctx = ServiceContext()
    assert ctx.get_value("nope", default="d") == "d"


def test_malformed_paths_rejected():
    ctx = ServiceContext()
    for bad in ("", "/lead", "trail/", "a//b"):
        with pytest.raises(ValueError):
            ctx.put_value(bad, 1)


def test_has_path_and_contains():
    ctx = ServiceContext()
    ctx.put_value("x", 1)
    assert ctx.has_path("x")
    assert "x" in ctx
    assert "y" not in ctx


def test_paths_sorted():
    ctx = ServiceContext()
    ctx.put_value("b", 2)
    ctx.put_value("a", 1)
    assert ctx.paths() == ["a", "b"]


def test_in_out_markings():
    ctx = ServiceContext()
    ctx.put_in_value("in/a", 1)
    ctx.put_out_value("out/b")
    assert ctx.in_paths() == ["in/a"]
    assert ctx.out_paths() == ["out/b"]


def test_mark_unknown_path_raises():
    ctx = ServiceContext()
    with pytest.raises(ContextError):
        ctx.mark_in("ghost")


def test_return_value_default_path():
    ctx = ServiceContext()
    ctx.set_return_value(3.5)
    assert ctx.get_return_value() == 3.5
    assert ctx.get_value("result/value") == 3.5


def test_return_path_customizable():
    ctx = ServiceContext()
    ctx.set_return_path("sensor/avg")
    ctx.set_return_value(20.0)
    assert ctx.get_value("sensor/avg") == 20.0


def test_copy_is_deep():
    ctx = ServiceContext()
    ctx.put_value("list", [1, 2])
    dup = ctx.copy()
    dup.get_value("list").append(3)
    assert ctx.get_value("list") == [1, 2]


def test_iteration_yields_sorted_items():
    ctx = ServiceContext()
    ctx.put_value("b", 2)
    ctx.put_value("a", 1)
    assert list(ctx) == [("a", 1), ("b", 2)]


def test_len():
    ctx = ServiceContext()
    assert len(ctx) == 0
    ctx.put_value("a", 1)
    assert len(ctx) == 1


def test_put_value_chains():
    ctx = ServiceContext().put_value("a/b", 1).put_value("c", 2)
    assert ctx.get_value("a/b") == 1
    assert ctx.get_value("c") == 2
