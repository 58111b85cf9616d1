"""E-EXPR — the runtime compute-expression mechanism (§V.A).

A real CPU microbenchmark (no simulation) of the pattern a composite
provider exercises — compile once, evaluate on every query — against
re-parsing per query. Expected shape: evaluation is an order of magnitude
cheaper than parsing, so caching compiled expressions (what the CSP does)
is the right design. The evaluator's correctness is ``tests/expr``.
"""

# repro: allow-file[DET001] - benchmarks time real work on the wall clock
import time

from repro.expr import compile_expression, evaluate
from repro.util.table import render_table

PAPER_EXPRESSION = "(a + b + c)/3"
BINDINGS = {name: float(i + 17) for i, name in enumerate("abcdefgh")}


def test_one_shot_vs_compiled(report):
    expr = compile_expression(PAPER_EXPRESSION)
    rounds = 2000

    def compiled_loop():
        for _ in range(rounds):
            expr.evaluate(BINDINGS)

    def one_shot_loop():
        for _ in range(rounds):
            evaluate(PAPER_EXPRESSION, BINDINGS)

    t0 = time.perf_counter()
    compiled_loop()
    compiled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    one_shot_loop()
    one_shot_s = time.perf_counter() - t0
    report(render_table(
        ["mode", "evals/s"],
        [["compile once, evaluate many (CSP design)", rounds / compiled_s],
         ["re-parse every query", rounds / one_shot_s],
         ["speedup", one_shot_s / compiled_s]],
        title="E-EXPR — why the CSP caches compiled expressions"))
    assert compiled_s < one_shot_s
