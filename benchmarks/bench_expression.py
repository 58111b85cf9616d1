"""E-EXPR — the runtime compute-expression mechanism (§V.A).

Real CPU microbenchmarks (no simulation): parse cost, compiled-evaluation
throughput, and the re-binding pattern a composite provider exercises —
compile once, evaluate against fresh sensor values on every query.
Expected shape: evaluation is orders of magnitude cheaper than parsing, so
caching compiled expressions (what the CSP does) is the right design.
"""

import numpy as np
# repro: allow-file[DET001] - benchmarks time real work on the wall clock
import pytest

from repro.expr import Expression, compile_expression, evaluate
from repro.util.table import render_table

PAPER_EXPRESSION = "(a + b + c)/3"
CORPUS = [
    "(a + b)/2",
    "(a + b + c)/3",
    "max(a, b) - min(a, b)",
    "a > b ? a : b",
    "clamp((a + b + c)/3, 0, 40)",
    "sqrt((a - b)^2 + (c - d)^2)",
    "avg(a, b, c, d, e, f, g, h)",
    "a * 9 / 5 + 32",
]
BINDINGS = {name: float(i + 17) for i, name in enumerate("abcdefgh")}


def test_parse_paper_expression(benchmark):
    result = benchmark(compile_expression, PAPER_EXPRESSION)
    assert result.variables == ("a", "b", "c")


def test_evaluate_compiled_paper_expression(benchmark):
    expr = compile_expression(PAPER_EXPRESSION)
    value = benchmark(expr.evaluate, BINDINGS)
    assert value == pytest.approx((17 + 18 + 19) / 3)


def test_evaluate_corpus(benchmark):
    compiled = [compile_expression(text) for text in CORPUS]

    def run():
        return [expr.evaluate(BINDINGS) for expr in compiled]

    values = benchmark(run)
    assert len(values) == len(CORPUS)


def test_one_shot_vs_compiled(benchmark, report):
    expr = compile_expression(PAPER_EXPRESSION)
    rounds = 2000

    def compiled_loop():
        for _ in range(rounds):
            expr.evaluate(BINDINGS)

    def one_shot_loop():
        for _ in range(rounds):
            evaluate(PAPER_EXPRESSION, BINDINGS)

    import time
    t0 = time.perf_counter()
    compiled_loop()
    compiled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    one_shot_loop()
    one_shot_s = time.perf_counter() - t0
    benchmark(expr.evaluate, BINDINGS)
    report(render_table(
        ["mode", "evals/s"],
        [["compile once, evaluate many (CSP design)", rounds / compiled_s],
         ["re-parse every query", rounds / one_shot_s],
         ["speedup", one_shot_s / compiled_s]],
        title="E-EXPR — why the CSP caches compiled expressions"))
    assert compiled_s < one_shot_s


def test_rebinding_matches_fresh_values(benchmark):
    """The CSP pattern: same expression, different sensor values each query."""
    expr = compile_expression(PAPER_EXPRESSION)
    rng = np.random.default_rng(0)
    batches = [{"a": float(a), "b": float(b), "c": float(c)}
               for a, b, c in rng.normal(20, 5, size=(200, 3))]

    def run():
        return [expr.evaluate(b) for b in batches]

    values = benchmark(run)
    for value, b in zip(values, batches):
        assert value == pytest.approx((b["a"] + b["b"] + b["c"]) / 3)
