"""Evaluator tests, including the paper's exact expressions."""

import math

import pytest

from repro.expr import (
    ExprEvalError,
    ExprNameError,
    compile_expression,
    evaluate,
)


def test_paper_average_of_three():
    assert evaluate("(a + b + c)/3", {"a": 20.0, "b": 22.0, "c": 24.0}) == 22.0


def test_paper_average_of_two():
    assert evaluate("(a + b)/2", {"a": 22.0, "b": 26.0}) == 24.0


def test_arithmetic_basics():
    assert evaluate("2 + 3 * 4") == 14
    assert evaluate("(2 + 3) * 4") == 20
    assert evaluate("10 / 4") == 2.5
    assert evaluate("7 % 3") == 1
    assert evaluate("2 ^ 10") == 1024
    assert evaluate("-3 + 5") == 2
    assert evaluate("2 ^ 3 ^ 2") == 512  # right associative


def test_comparisons_return_zero_one():
    assert evaluate("3 > 2") == 1.0
    assert evaluate("3 < 2") == 0.0
    assert evaluate("2 >= 2") == 1.0
    assert evaluate("2 != 2") == 0.0
    assert evaluate("2 == 2") == 1.0


def test_boolean_operators():
    assert evaluate("1 && 1") == 1.0
    assert evaluate("1 && 0") == 0.0
    assert evaluate("0 || 1") == 1.0
    assert evaluate("0 || 0") == 0.0
    assert evaluate("!0") == 1.0
    assert evaluate("!5") == 0.0


def test_short_circuit_avoids_division_by_zero():
    # 0 && (1/0) must not evaluate the right side.
    assert evaluate("0 && 1 / 0") == 0.0
    assert evaluate("1 || 1 / 0") == 1.0


def test_ternary():
    assert evaluate("a > b ? a : b", {"a": 5, "b": 3}) == 5
    assert evaluate("a > b ? a : b", {"a": 1, "b": 3}) == 3


def test_functions():
    assert evaluate("max(3, 1, 2)") == 3
    assert evaluate("max(7)") == 7
    assert evaluate("max(a, b) > 30 ? 1 : 0", {"a": 31, "b": 2}) == 1


def test_division_by_zero():
    with pytest.raises(ExprEvalError):
        evaluate("1 / 0")
    with pytest.raises(ExprEvalError):
        evaluate("1 % 0")


def test_domain_errors():
    with pytest.raises(ExprEvalError):
        evaluate("0 ^ -1")
    with pytest.raises(ExprEvalError):
        evaluate("10 ^ 1000")
    with pytest.raises(ExprEvalError):  # complex result
        evaluate("(0 - 8) ^ 0.5")


def test_arity_errors():
    with pytest.raises(ExprEvalError):
        evaluate("max()")


def test_unbound_variable():
    with pytest.raises(ExprNameError):
        evaluate("a + 1")


def test_unknown_function():
    with pytest.raises(ExprNameError):
        evaluate("mystery(1)")


def test_non_numeric_binding_rejected():
    with pytest.raises(ExprEvalError):
        evaluate("a + 1", {"a": "not-a-number"})
    with pytest.raises(ExprEvalError):
        evaluate("a + 1", {"a": True})


def test_resolver_callable():
    values = {"x": 10.0}
    assert evaluate("x * 2", lambda name: values[name]) == 20.0


def test_compiled_expression_reuse():
    expr = compile_expression("(a + b)/2")
    assert expr.variables == ("a", "b")
    assert expr.evaluate({"a": 2, "b": 4}) == 3
    assert expr.evaluate({"a": 10, "b": 20}) == 15
    assert expr(a=1, b=3) == 2


def test_variables_sorted_and_deduped():
    expr = compile_expression("b + a + b + max(a, c)")
    assert expr.variables == ("a", "b", "c")


def test_scientific_notation():
    assert evaluate("1e3 + 2.5e-1") == pytest.approx(1000.25)


def test_large_expression():
    terms = " + ".join(f"v{i}" for i in range(100))
    bindings = {f"v{i}": float(i) for i in range(100)}
    assert evaluate(terms, bindings) == sum(range(100))


def test_constants():
    import math
    assert evaluate("PI") == pytest.approx(math.pi)
    assert evaluate("2 * PI") == pytest.approx(math.tau)
    assert evaluate("E") == pytest.approx(math.e)
    assert evaluate("TRUE && FALSE") == 0.0
    assert evaluate("TRUE || FALSE") == 1.0


def test_constants_are_not_free_variables():
    expr = compile_expression("a * PI + E")
    assert expr.variables == ("a",)
    assert expr.evaluate({"a": 2.0}) == pytest.approx(2 * 3.141592653589793
                                                      + 2.718281828459045)


def test_lowercase_e_stays_a_variable():
    # Composite variables are lowercase (a, b, ... e); only uppercase E is
    # the constant, so the 5th composed service binds cleanly.
    expr = compile_expression("e * 2")
    assert expr.variables == ("e",)
    assert expr.evaluate({"e": 10.0}) == 20.0


def test_constants_not_shadowed_by_bindings():
    # A binding named 'PI' is ignored; the constant wins (documented).
    assert evaluate("PI", {"PI": 99.0}) == pytest.approx(3.141592653589793)
