"""Expression evaluation with late-bound variables.

:class:`Expression` compiles once and evaluates many times against changing
bindings — exactly how a composite sensor provider uses it: the expression
``(a + b + c)/3`` is attached once, while ``a``/``b``/``c`` resolve to fresh
sensor values on every query.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from .errors import ExprEvalError, ExprNameError
from .functions import BUILTINS
from .nodes import Binary, Call, Conditional, Node, Number, Unary, Variable
from .parser import parse

__all__ = ["Expression", "compile_expression", "evaluate", "CONSTANTS"]

Resolver = Callable[[str], float]

#: Predefined names usable in any expression; they are *not* free
#: variables. Uppercase by design: composite providers create lowercase
#: variables (a, b, ... e, ...), so constants can never shadow them.
CONSTANTS: dict = {
    "PI": 3.141592653589793,
    "E": 2.718281828459045,
    "TRUE": 1.0,
    "FALSE": 0.0,
}


def _as_resolver(bindings: Union[Mapping, Resolver, None]) -> Resolver:
    if bindings is None:
        def empty(name: str) -> float:
            raise ExprNameError(f"unbound variable {name!r}")
        return empty
    if callable(bindings):
        return bindings

    def lookup(name: str) -> float:
        try:
            return bindings[name]
        except KeyError:
            raise ExprNameError(f"unbound variable {name!r}") from None
    return lookup


def _truthy(value: float) -> bool:
    return bool(value)


def _eval(node: Node, resolver: Resolver) -> float:
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        if node.name in CONSTANTS:
            return CONSTANTS[node.name]
        value = resolver(node.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExprEvalError(
                f"variable {node.name!r} resolved to non-numeric {value!r}")
        return float(value)
    if isinstance(node, Unary):
        operand = _eval(node.operand, resolver)
        if node.op == "-":
            return -operand
        if node.op == "!":
            return 0.0 if _truthy(operand) else 1.0
        raise ExprEvalError(f"unknown unary operator {node.op!r}")
    if isinstance(node, Conditional):
        condition = _eval(node.condition, resolver)
        branch = node.if_true if _truthy(condition) else node.if_false
        return _eval(branch, resolver)
    if isinstance(node, Call):
        fn = BUILTINS.get(node.func)
        if fn is None:
            raise ExprNameError(f"unknown function {node.func!r}")
        args = [_eval(arg, resolver) for arg in node.args]
        return float(fn(*args))
    if isinstance(node, Binary):
        if node.op == "&&":
            left = _eval(node.left, resolver)
            if not _truthy(left):
                return 0.0
            return 1.0 if _truthy(_eval(node.right, resolver)) else 0.0
        if node.op == "||":
            left = _eval(node.left, resolver)
            if _truthy(left):
                return 1.0
            return 1.0 if _truthy(_eval(node.right, resolver)) else 0.0
        left = _eval(node.left, resolver)
        right = _eval(node.right, resolver)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExprEvalError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise ExprEvalError("modulo by zero")
            return left % right
        if op == "^":
            try:
                # A negative base to a fractional power is complex, which
                # float() refuses with a TypeError.
                return float(left ** right)
            except (OverflowError, ZeroDivisionError, ValueError,
                    TypeError) as exc:
                raise ExprEvalError(f"{left} ^ {right}: {exc}") from exc
        if op == "<":
            return 1.0 if left < right else 0.0
        if op == "<=":
            return 1.0 if left <= right else 0.0
        if op == ">":
            return 1.0 if left > right else 0.0
        if op == ">=":
            return 1.0 if left >= right else 0.0
        if op == "==":
            return 1.0 if left == right else 0.0
        if op == "!=":
            return 1.0 if left != right else 0.0
        raise ExprEvalError(f"unknown operator {op!r}")
    raise ExprEvalError(f"cannot evaluate node {node!r}")  # pragma: no cover


class Expression:
    """A compiled compute-expression."""

    def __init__(self, text: str):
        self.text = text
        self.ast = parse(text)
        #: Free variables (constants excluded), sorted.
        self.variables = tuple(sorted(
            self.ast.free_variables() - set(CONSTANTS)))

    def evaluate(self, bindings: Union[Mapping, Resolver, None] = None) -> float:
        return _eval(self.ast, _as_resolver(bindings))

    def __call__(self, **bindings) -> float:
        return self.evaluate(bindings)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Expression {self.text!r} vars={self.variables}>"


def compile_expression(text: str) -> Expression:
    return Expression(text)


def evaluate(text: str, bindings: Union[Mapping, Resolver, None] = None) -> float:
    """One-shot convenience: parse + evaluate."""
    return Expression(text).evaluate(bindings)
