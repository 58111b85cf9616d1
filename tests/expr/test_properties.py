"""Property-based tests for the expression language (hypothesis)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import Expression, ExprError, evaluate, parse

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
var_names = st.sampled_from(list("abcdefgh"))


@given(finite)
def test_number_literal_roundtrip(x):
    # Format with repr to keep full precision; negative via unary minus.
    text = repr(abs(x))
    assert evaluate(text) == pytest.approx(abs(x))


@given(finite, finite)
def test_addition_commutative(a, b):
    bindings = {"a": a, "b": b}
    assert evaluate("a + b", bindings) == evaluate("b + a", bindings)


@given(finite, finite, finite)
def test_average_between_min_and_max(a, b, c):
    bindings = {"a": a, "b": b, "c": c}
    result = evaluate("(a + b + c)/3", bindings)
    assert min(a, b, c) - 1e-6 <= result <= max(a, b, c) + 1e-6


@given(finite, finite)
def test_ternary_matches_python_max(a, b):
    assert evaluate("a > b ? a : b", {"a": a, "b": b}) == max(a, b)


@given(st.text(alphabet="abc+-*/()0123456789 .<>=!&|?:%^,", max_size=40))
def test_parser_never_crashes_unexpectedly(text):
    """Arbitrary input either parses or raises an ExprError — nothing else."""
    try:
        parse(text)
    except ExprError:
        pass


@given(var_names, finite)
def test_free_variables_found(name, value):
    expr = Expression(f"{name} * 2")
    assert expr.variables == (name,)
    assert expr.evaluate({name: value}) == pytest.approx(2 * value)


@given(finite)
def test_double_negation_identity(x):
    assert evaluate("- - x", {"x": x}) == x


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
def test_power_matches_python(base, exponent):
    assert evaluate(f"{base} ^ {exponent}") == base ** exponent


@given(finite, finite)
def test_comparisons_total_order(a, b):
    bindings = {"a": a, "b": b}
    lt = evaluate("a < b", bindings)
    gt = evaluate("a > b", bindings)
    eq = evaluate("a == b", bindings)
    assert lt + gt + eq == 1.0
