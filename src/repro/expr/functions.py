"""Built-in function library for compute-expressions.

One function: ``max``, for alert expressions such as
``max(a, b) > 30 ? 1 : 0``. Averages are arithmetic (``(a + b + c)/3``, the
paper's expression) and conditionals are the language's ``?:``.
"""

from __future__ import annotations

from typing import Callable

from .errors import ExprEvalError

__all__ = ["BUILTINS"]


def _max(*args):
    if not args:
        raise ExprEvalError("max() expects at least 1 argument(s), got 0")
    return max(args)


BUILTINS: dict[str, Callable] = {
    "max": _max,
}
