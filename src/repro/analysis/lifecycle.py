"""RES0xx — resource-lifecycle rules over the intraprocedural CFG.

Every rule here proves the same shape of property: *an acquire has a
matching release on every path that leaves the function*, where "every
path" includes the exceptional edges the CFG models (a raising call, a
``raise``, and the failure thrown in at every yield point). The acquire /
release pairs are the repo's own contracts:

=======  ==================================================================
RES001   a span opened with ``start_span`` must be ``end()``-ed on all
         paths (an open span never appears in duration rollups and holds
         its annotations forever)
RES004   a ``HistoryStore`` / ``sqlite3.connect`` handle must be
         ``close()``-d on all paths (or held in a ``with`` block)
=======  ==================================================================

Both rules caught a real leak when they arrived (DESIGN §13). The
admission slot and the ``AtomicFile`` publish-or-abort protocol, which
once had rules of their own, are pinned by behaviour tests instead
(``tests/sorcer/test_provider_exert.py``, ``tests/util/test_atomicio.py``).

A bound resource that *escapes* the function (returned, yielded, passed as
an argument, stored into an attribute/container, aliased, or captured by a
nested function) is someone else's responsibility and is never flagged —
that is the documented "cannot prove" escape hatch (DESIGN §13).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .cfg import EXC, NORMAL, Cfg, build_cfg
from .rules import ModuleInfo, Rule, register

__all__ = ["leaks_for"]


# ---------------------------------------------------------------------------
# Small AST matchers


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _attr_call(call: ast.Call) -> tuple:
    """``(method_name, receiver)`` of an attribute call, else (None, None)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr, call.func.value
    return None, None


# ---------------------------------------------------------------------------
# Escape analysis for name-bound resources


def _mentions_object(expr: ast.AST, name: str) -> bool:
    """Can evaluating ``expr`` yield (a reference to) the object bound to
    ``name`` — as opposed to a value merely *derived* from it?

    ``span`` → yes; ``span.span_id`` / ``store is None`` → no (an
    attribute read or a comparison produces a different object);
    ``run_id if store else None`` → no (the test is truthiness only).
    """
    if isinstance(expr, ast.Name):
        return expr.id == name
    if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Compare)):
        return False
    if isinstance(expr, ast.IfExp):
        return _mentions_object(expr.body, name) \
            or _mentions_object(expr.orelse, name)
    return any(_mentions_object(child, name)
               for child in ast.iter_child_nodes(expr))


def _name_escapes(func: ast.AST, name: str, binder: ast.stmt) -> bool:
    """Can ``name`` outlive the function (or this binding)?

    True when the object is returned, yielded, raised, passed as a call
    argument, stored into an attribute/subscript/collection, aliased to
    another name, or captured by a nested function. Receiver position
    (``name.method(...)``) and derived values (``name.attr``) don't
    escape.
    """
    # Nested scopes included: escape analysis must see closures that
    # capture the resource.
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _mentions_object(arg, name):
                    return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom,
                               ast.Raise)):
            value = getattr(node, "value", None) or getattr(node, "exc", None)
            if value is not None and _mentions_object(value, name):
                return True
        elif isinstance(node, ast.Assign) and node is not binder:
            stores_elsewhere = any(
                not (isinstance(t, ast.Name) and t.id == name)
                for t in node.targets)
            if stores_elsewhere and _mentions_object(node.value, name):
                return True
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)) and node is not func:
            # Captured by a closure: any mention at all pins the object.
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                if any(isinstance(sub, ast.Name) and sub.id == name
                       for sub in ast.walk(stmt)):
                    return True
    return False


# ---------------------------------------------------------------------------
# The leak engine


class _Leak:
    __slots__ = ("kind", "via_line")

    def __init__(self, kind: str, via_line: int):
        self.kind = kind        # NORMAL / EXC
        self.via_line = via_line


def leaks_for(cfg: Cfg, acquire_node, is_release, is_rebind) -> list:
    """Paths from ``acquire_node`` to an exit without a release.

    Returns one :class:`_Leak` per distinct (exit kind, via line),
    exception leaks first (the most actionable), then by line: the
    dataflow propagates an *open* token along edges — except the acquire
    node's own exceptional edges, where the acquisition itself failed and
    there is nothing to release.
    """
    leaks: dict[tuple, _Leak] = {}
    seen = set()
    work = [(acquire_node, succ, kind)
            for succ, kind in cfg.successors(acquire_node)
            if kind == NORMAL]
    while work:
        src, node, kind = work.pop()
        if node is cfg.exit:
            leaks.setdefault((NORMAL, 0), _Leak(NORMAL, src.line))
            continue
        if node is cfg.raise_exit:
            leaks.setdefault((kind, src.line), _Leak(kind, src.line))
            continue
        if (node.index, kind) in seen:
            continue
        seen.add((node.index, kind))
        if node.stmt is not None:
            if is_release(node.stmt):
                continue
            if is_rebind(node.stmt):
                continue
        for succ, edge_kind in cfg.successors(node):
            # A non-normal edge stamps the path with its kind; the line we
            # report is the last real statement the path left through.
            carried = kind if edge_kind == NORMAL else edge_kind
            work.append((node if node.line else src, succ, carried))
    return sorted(leaks.values(),
                  key=lambda leak: (leak.kind != EXC, leak.via_line))


def _leak_message(what: str, leak: _Leak) -> str:
    if leak.kind == EXC:
        return (f"{what} is not released on the exception path escaping "
                f"at line {leak.via_line}")
    return f"{what} is not released on every normal path to return"


# ---------------------------------------------------------------------------
# Shared per-function driver for bind-style protocols


def _binding_of(stmt: ast.stmt, match_call) -> tuple:
    """``(bound_name, call)`` when ``stmt`` binds a matching acquire call to
    a plain local name; ``(None, call)`` when the call's result is dropped
    or bound to something we cannot track (tuple target, attribute, ...).
    ``(None, None)`` when the statement has no matching call."""
    for call in _calls_in(stmt):
        if not match_call(call):
            continue
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.value is not None):
            # Direct bind, possibly through `x = yield from acquire(...)`.
            return stmt.targets[0].id, call
        if isinstance(stmt, ast.Expr):
            return None, call
        return "<untracked>", call
    return None, None


def _release_on_name(name: str, method: str):
    def is_release(stmt: ast.stmt) -> bool:
        for call in _calls_in(stmt):
            attr, recv = _attr_call(call)
            if (attr == method and isinstance(recv, ast.Name)
                    and recv.id == name):
                return True
        return False
    return is_release


def _rebind_of_name(name: str, binder: ast.stmt):
    def is_rebind(stmt: ast.stmt) -> bool:
        if stmt is binder:
            return True
        if isinstance(stmt, ast.Assign):
            return any(isinstance(t, ast.Name) and t.id == name
                       for t in stmt.targets)
        return False
    return is_rebind


class _LifecycleRule(Rule):
    """Base: every acquire that :meth:`acquires` matches and that binds a
    local name must reach ``<name>.<release_method>()`` on every path out
    of the function; a dropped acquire is reported with ``drop_message``."""

    release_method = ""
    what = ""
    drop_message = ""

    def acquires(self, func):  # pragma: no cover
        """Predicate over the ``ast.Call``s of ``func`` that acquire."""
        raise NotImplementedError

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            match_call = self.acquires(func)
            cfg = build_cfg(func)
            for node in cfg.statement_nodes():
                name, call = _binding_of(node.stmt, match_call)
                if call is None:
                    continue
                if name is None:
                    yield call.lineno, self.drop_message
                    continue
                if name == "<untracked>":
                    continue  # bound into a structure: assume handed off
                if _name_escapes(func, name, node.stmt):
                    continue
                leaks = leaks_for(cfg, node,
                                  _release_on_name(name, self.release_method),
                                  _rebind_of_name(name, node.stmt))
                if leaks:
                    yield call.lineno, _leak_message(
                        f"{self.what} {name!r}", leaks[0])


# ---------------------------------------------------------------------------
# RES001 — spans


def _is_start_span(call: ast.Call) -> bool:
    attr, _ = _attr_call(call)
    return attr == "start_span"


@register
class SpanLifecycleRule(_LifecycleRule):
    rule_id = "RES001"
    summary = "span opened but not ended on every path"
    hint = ("close the span in a try/finally (or `except BaseException: "
            "span.end('error'); raise`); spans that outlive the function "
            "must be handed off explicitly")
    release_method = "end"
    what = "span"
    drop_message = ("span started and immediately dropped — it can never "
                    "be ended")

    def acquires(self, func):
        return _is_start_span


# ---------------------------------------------------------------------------
# RES004 — sqlite / HistoryStore handles


def _is_store_open(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "HistoryStore":
        return True
    if isinstance(func, ast.Attribute):
        if func.attr == "HistoryStore":
            return True
        if func.attr == "connect" and isinstance(func.value, ast.Name) \
                and func.value.id == "sqlite3":
            return True
    return False


@register
class StoreLifecycleRule(_LifecycleRule):
    rule_id = "RES004"
    summary = "sqlite/HistoryStore handle not closed on every path"
    hint = ("use `with HistoryStore(...) as store:` or close() in a "
            "try/finally — an unclosed WAL connection can hold the "
            "database lock past the run")
    release_method = "close"
    what = "history-store handle"
    drop_message = ("history-store handle opened and immediately dropped — "
                    "the connection can never be closed")

    def acquires(self, func):
        # `with HistoryStore(...)` manages its own lifetime: skip any
        # acquire that appears as a with-item context expression.
        with_calls = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_calls.update(_calls_in(item.context_expr))
        return lambda call: _is_store_open(call) and call not in with_calls
