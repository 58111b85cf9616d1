"""Unit tests for the intraprocedural CFG (repro.analysis.cfg).

Each test builds the CFG of one small function and asserts reachability
or edge-level properties: which statements can follow which, where the
exceptional edges go (every yield point has one), and — the subtle part —
that every route out of a ``try`` runs its ``finally`` body.
"""

import ast
import textwrap

from repro.analysis.cfg import (EXC, NORMAL, build_cfg, can_raise,
                                has_yield)


def cfg_of(code):
    tree = ast.parse(textwrap.dedent(code))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def node_at(cfg, line):
    """The statement node whose head is on ``line``."""
    return next(n for n in cfg.statement_nodes() if n.line == line)


def nodes_labelled(cfg, label):
    return [n for n in cfg.nodes if n.label == label]


def reachable(cfg, start, kinds=None):
    """Indices of all nodes reachable from ``start`` (optionally only
    along edges of the given kinds)."""
    seen = set()
    work = [start]
    while work:
        node = work.pop()
        if node.index in seen:
            continue
        seen.add(node.index)
        for succ, kind in cfg.successors(node):
            if kinds is None or kind in kinds:
                work.append(succ)
    return seen


def edge_kinds(cfg, src, dst):
    return {kind for index, kind in cfg.succ[src.index]
            if index == dst.index}


# ---------------------------------------------------------------------------
# Basics: straight-line flow, raising statements, yields


def test_straight_line_reaches_exit():
    cfg = cfg_of("""
        def f(a):
            x = a
            y = x
            return y
    """)
    assert cfg.exit.index in reachable(cfg, cfg.entry)


def test_call_statement_gets_exception_edge():
    cfg = cfg_of("""
        def f(g):
            x = g()
    """)
    assert EXC in edge_kinds(cfg, node_at(cfg, 3), cfg.raise_exit)


def test_plain_assignment_has_no_exception_edge():
    cfg = cfg_of("""
        def f(a):
            x = a
    """)
    assert not edge_kinds(cfg, node_at(cfg, 3), cfg.raise_exit)


def test_yield_gets_exception_edge():
    cfg = cfg_of("""
        def f(ev):
            yield ev
    """)
    kinds = edge_kinds(cfg, node_at(cfg, 3), cfg.raise_exit)
    assert kinds == {EXC}


def test_can_raise_and_has_yield_judgements():
    call = ast.parse("g()").body[0]
    assign = ast.parse("x = a").body[0]
    yielded = ast.parse("x = yield ev").body[0]
    assert can_raise(call) and not can_raise(assign)
    assert has_yield(yielded) and not has_yield(call)
    # Nested scopes are opaque: a lambda body's call is not *our* call.
    lam = ast.parse("f = lambda: g()").body[0]
    assert not can_raise(lam)


# ---------------------------------------------------------------------------
# Branches and loops


def test_if_without_else_has_fallthrough_edge():
    cfg = cfg_of("""
        def f(flag, g):
            if flag:
                g()
            return 1
    """)
    head = node_at(cfg, 3)
    # The return is reachable from the if head both through the body and
    # directly (test false).
    ret = node_at(cfg, 5)
    assert ret.index in reachable(cfg, head, kinds={NORMAL})
    join = nodes_labelled(cfg, "join")[0]
    assert NORMAL in edge_kinds(cfg, head, join)


def test_loop_break_exits_to_after():
    cfg = cfg_of("""
        def f(items, g):
            for item in items:
                break
            g()
    """)
    brk = node_at(cfg, 4)
    tail = node_at(cfg, 5)
    assert tail.index in reachable(cfg, brk, kinds={NORMAL})


def test_loop_body_loops_back_to_head():
    cfg = cfg_of("""
        def f(items):
            for item in items:
                x = item
    """)
    head = node_at(cfg, 3)
    body = node_at(cfg, 4)
    assert head.index in reachable(cfg, body, kinds={NORMAL})


# ---------------------------------------------------------------------------
# try / except


def test_total_handler_stops_propagation():
    cfg = cfg_of("""
        def f(g):
            try:
                g()
            except Exception:
                x = 1
    """)
    assert cfg.raise_exit.index not in reachable(cfg, node_at(cfg, 4))


def test_narrow_handler_propagates():
    cfg = cfg_of("""
        def f(g):
            try:
                g()
            except KeyError:
                x = 1
    """)
    assert cfg.raise_exit.index in reachable(cfg, node_at(cfg, 4))


def test_exception_in_body_reaches_handler():
    cfg = cfg_of("""
        def f(g, h):
            try:
                g()
            except Exception:
                h()
    """)
    handler_stmt = node_at(cfg, 6)
    assert handler_stmt.index in reachable(cfg, node_at(cfg, 4))


# ---------------------------------------------------------------------------
# try / finally: every route out runs the finally body


def test_return_routes_through_finally():
    cfg = cfg_of("""
        def f(g, cleanup):
            try:
                return g()
            finally:
                cleanup()
    """)
    ret = node_at(cfg, 4)
    fin = node_at(cfg, 6)
    assert fin.index in reachable(cfg, ret)
    # ... and never straight to the exit, skipping the cleanup.
    assert not edge_kinds(cfg, ret, cfg.exit)


def test_exception_routes_through_finally():
    cfg = cfg_of("""
        def f(g, cleanup):
            try:
                g()
            finally:
                cleanup()
    """)
    body = node_at(cfg, 4)
    fin = node_at(cfg, 6)
    assert fin.index in reachable(cfg, body, kinds={EXC, NORMAL})
    assert cfg.raise_exit.index in reachable(cfg, body)


def test_break_routes_through_finally():
    cfg = cfg_of("""
        def f(items, cleanup, g):
            for item in items:
                try:
                    break
                finally:
                    cleanup()
            g()
    """)
    brk = node_at(cfg, 5)
    fin = node_at(cfg, 7)
    tail = node_at(cfg, 8)
    assert fin.index in reachable(cfg, brk)
    assert tail.index in reachable(cfg, brk)
    # break -> pad only; no direct escape past the finally.
    assert not edge_kinds(cfg, brk, tail)


def test_unused_pads_stay_disconnected():
    # No return/break/continue inside the try: the pads must not be wired,
    # or they would fabricate a path that skips the finally body.
    cfg = cfg_of("""
        def f(g, cleanup):
            try:
                g()
            finally:
                cleanup()
            return 1
    """)
    for pad in nodes_labelled(cfg, "pad-return"):
        assert cfg.succ[pad.index] == []


def test_finally_cleanup_calls_assumed_not_to_raise():
    cfg = cfg_of("""
        def f(g, cleanup, log):
            try:
                g()
            finally:
                cleanup()
                log()
    """)
    fin_first = node_at(cfg, 6)
    assert not edge_kinds(cfg, fin_first, cfg.raise_exit)
    # Both cleanup statements run in order on the way out.
    assert node_at(cfg, 7).index in reachable(cfg, fin_first,
                                              kinds={NORMAL})


def test_yield_in_finally_keeps_exception_edge():
    # Cleanup calls are assumed not to raise, but a failed event is still
    # thrown in at a yield inside the finally body.
    cfg = cfg_of("""
        def f(g, ev):
            try:
                g()
            finally:
                yield ev
    """)
    kinds = edge_kinds(cfg, node_at(cfg, 6), cfg.raise_exit)
    assert kinds == {EXC}
