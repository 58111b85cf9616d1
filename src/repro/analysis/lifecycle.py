"""RES0xx — resource-lifecycle rules over the intraprocedural CFG.

Every rule here proves the same shape of property: *an acquire has a
matching release on every path that leaves the function*, where "every
path" includes the exceptional edges the CFG models (a raising call, a
``raise``, and the Interrupt edge at every yield point). The acquire /
release pairs are the repo's own contracts:

=======  ==================================================================
RES001   a span opened with ``start_span`` must be ``end()``-ed on all
         paths (an open span never appears in duration rollups and holds
         its annotations forever)
RES002   a lease ``grant(...)`` whose handle is discarded can never be
         renewed or cancelled — the resource is pinned until it lapses
RES003   an admission slot taken with ``admission.acquire(...)`` must be
         returned with ``admission.release(...)`` on all paths (a leaked
         slot permanently shrinks the provider's concurrency)
RES004   a ``HistoryStore`` / ``sqlite3.connect`` handle must be
         ``close()``-d on all paths (or held in a ``with`` block)
RES005   an armed timer callback (``timer.callbacks.append``) that the
         function also disarms (``timer.cancel()`` or
         ``timer.callbacks.clear()``) must be disarmed on the exceptional
         edges too — an Interrupt between arm and disarm leaves a stale
         callback that fires into freed state
RES006   an ``AtomicFile`` handle must be ``close()``-d or ``abort()``-ed
         on all paths, Interrupt edges included (or held in a ``with``
         block) — an interrupted writer strands the temp file and never
         publishes (or never cleans up) the artifact
=======  ==================================================================

A bound resource that *escapes* the function (returned, yielded, passed as
an argument, stored into an attribute/container, aliased, or captured by a
nested function) is someone else's responsibility and is never flagged —
that is the documented "cannot prove" escape hatch (DESIGN §13).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .cfg import EXC, INTERRUPT, NORMAL, Cfg, build_cfg, head_exprs
from .rules import ModuleInfo, Rule, register

__all__ = ["leaks_for"]


# ---------------------------------------------------------------------------
# Small AST matchers


def _dotted(expr: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` / ``a`` as a dotted string; None for anything else."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _attr_call(call: ast.Call) -> tuple:
    """``(method_name, receiver)`` of an attribute call, else (None, None)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr, call.func.value
    return None, None


def _own_function_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """All AST nodes of the function, *including* nested scopes (escape
    analysis must see closures that capture the resource)."""
    yield from ast.walk(func)


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
    for node in _own_function_nodes(func):
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
        self.kind = kind        # NORMAL / EXC / INTERRUPT
        self.via_line = via_line


def _find_leaks(cfg: Cfg, acquire_node, is_release, is_rebind) -> list:
    """Paths from ``acquire_node`` to an exit without a release.

    Returns one :class:`_Leak` per distinct (exit kind, via line): the
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
    return list(leaks.values())


def _leak_message(what: str, leak: _Leak) -> str:
    if leak.kind == INTERRUPT:
        return (f"{what} is not released on the Interrupt edge of the "
                f"yield at line {leak.via_line}")
    if leak.kind == EXC:
        return (f"{what} is not released on the exception path escaping "
                f"at line {leak.via_line}")
    return f"{what} is not released on every normal path to return"


def leaks_for(cfg: Cfg, acquire_node, is_release, is_rebind,
              exceptional_only: bool = False) -> list:
    leaks = _find_leaks(cfg, acquire_node, is_release, is_rebind)
    if exceptional_only:
        leaks = [leak for leak in leaks if leak.kind != NORMAL]
    # Deterministic order: interrupts first (most actionable), then by line.
    order = {INTERRUPT: 0, EXC: 1, NORMAL: 2}
    leaks.sort(key=lambda leak: (order[leak.kind], leak.via_line))
    return leaks


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
    """Base: walks every function, builds its CFG, delegates."""

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            yield from self.check_function(module, func)

    def check_function(self, module, func):  # pragma: no cover
        raise NotImplementedError

    def _check_bound_protocol(self, module, func, match_call: object,
                              release_method: str, what: str,
                              drop_message: Optional[str] = None,
                              exceptional_only: bool = False):
        cfg = build_cfg(func)
        for node in cfg.statement_nodes():
            name, call = _binding_of(node.stmt, match_call)
            if call is None:
                continue
            if name is None:
                if drop_message:
                    yield call.lineno, drop_message
                continue
            if name == "<untracked>":
                continue  # bound into a structure: assume handed off
            if _name_escapes(func, name, node.stmt):
                continue
            leaks = leaks_for(cfg, node,
                              _release_on_name(name, release_method),
                              _rebind_of_name(name, node.stmt),
                              exceptional_only=exceptional_only)
            if leaks:
                yield call.lineno, _leak_message(
                    f"{what} {name!r}", leaks[0])


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

    def check_function(self, module, func):
        yield from self._check_bound_protocol(
            module, func, _is_start_span, "end", "span",
            drop_message="span started and immediately dropped — it can "
                         "never be ended")


# ---------------------------------------------------------------------------
# RES002 — discarded lease grants


@register
class LeaseGrantRule(Rule):
    rule_id = "RES002"
    summary = "lease granted but the handle is discarded"
    hint = ("keep the Lease returned by grant() — without it the holder "
            "can neither renew nor cancel, and the resource is pinned "
            "until the lease lapses on its own")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            for node in ast.walk(func):
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)):
                    continue
                attr, recv = _attr_call(node.value)
                dotted = _dotted(recv) if recv is not None else None
                if attr == "grant" and dotted is not None \
                        and "landlord" in dotted.lower():
                    yield (node.lineno,
                           f"{dotted}.grant(...) discards the Lease handle")


# ---------------------------------------------------------------------------
# RES003 — admission slots


def _admission_owner(call: ast.Call) -> Optional[str]:
    attr, recv = _attr_call(call)
    if attr != "acquire" or recv is None:
        return None
    dotted = _dotted(recv)
    if dotted is not None and "admission" in dotted.rsplit(".", 1)[-1]:
        return dotted
    return None


@register
class AdmissionSlotRule(_LifecycleRule):
    rule_id = "RES003"
    summary = "admission slot acquired but not released on every path"
    hint = ("release the slot in a try/finally around the work; a leaked "
            "slot permanently shrinks the provider's concurrency")

    def check_function(self, module, func):
        cfg = build_cfg(func)
        for node in cfg.statement_nodes():
            owner = None
            acquire_call = None
            for expr in head_exprs(node):
                for call in _calls_in(expr):
                    owner = _admission_owner(call)
                    if owner is not None:
                        acquire_call = call
                        break
                if owner is not None:
                    break
            if owner is None:
                continue

            def is_release(stmt: ast.stmt, owner=owner) -> bool:
                for call in _calls_in(stmt):
                    attr, recv = _attr_call(call)
                    if attr == "release" and recv is not None \
                            and _dotted(recv) == owner:
                        return True
                return False

            leaks = leaks_for(cfg, node, is_release, lambda stmt: False)
            if leaks:
                yield acquire_call.lineno, _leak_message(
                    f"admission slot from {owner}.acquire()", leaks[0])


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

    def check_function(self, module, func):
        # `with HistoryStore(...)` manages its own lifetime: skip any
        # acquire that appears as a with-item context expression.
        with_calls = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for call in _calls_in(item.context_expr):
                        with_calls.add(call)

        def match(call: ast.Call) -> bool:
            return _is_store_open(call) and call not in with_calls

        yield from self._check_bound_protocol(
            module, func, match, "close", "history-store handle",
            drop_message="history-store handle opened and immediately "
                         "dropped — the connection can never be closed")


# ---------------------------------------------------------------------------
# RES005 — armed timers across yield points


def _timer_owner_of(call: ast.Call, method: str) -> Optional[str]:
    """Owner ``T`` of ``T.callbacks.<method>(...)``."""
    attr, recv = _attr_call(call)
    if attr != method or not isinstance(recv, ast.Attribute):
        return None
    if recv.attr != "callbacks":
        return None
    return _dotted(recv.value)


def _disarmed_timer_of(call: ast.Call) -> Optional[str]:
    """Owner ``T`` of ``T.cancel()`` or ``T.callbacks.clear()``."""
    attr, recv = _attr_call(call)
    if attr == "cancel" and not call.args and not call.keywords:
        return _dotted(recv)
    return _timer_owner_of(call, "clear")


@register
class TimerArmRule(_LifecycleRule):
    rule_id = "RES005"
    summary = "armed timer callback not cleared on the exceptional paths"
    hint = ("clear the timer's callbacks in a try/finally (or an Interrupt "
            "handler) so an interrupted process cannot leave a stale "
            "callback armed")

    def check_function(self, module, func):
        # Conditional protocol: a function that never disarms is using the
        # fire-later pattern and is fine; one that disarms on the happy
        # path but not on the exceptional edges has the bug.
        disarmed_owners = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                owner = _disarmed_timer_of(node)
                if owner is not None:
                    disarmed_owners.add(owner)
        if not disarmed_owners:
            return
        cfg = build_cfg(func)
        for node in cfg.statement_nodes():
            arm_call = None
            owner = None
            for expr in head_exprs(node):
                for call in _calls_in(expr):
                    owner = _timer_owner_of(call, "append")
                    if owner is not None and owner in disarmed_owners:
                        arm_call = call
                        break
                if arm_call is not None:
                    break
            if arm_call is None:
                continue

            def is_release(stmt: ast.stmt, owner=owner) -> bool:
                for call in _calls_in(stmt):
                    if _disarmed_timer_of(call) == owner:
                        return True
                return False

            leaks = leaks_for(cfg, node, is_release, lambda stmt: False,
                              exceptional_only=True)
            if leaks:
                yield arm_call.lineno, _leak_message(
                    f"timer callback armed on {owner}", leaks[0])


# ---------------------------------------------------------------------------
# RES006 — AtomicFile handles


def _is_atomic_open(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "AtomicFile"
    return isinstance(func, ast.Attribute) and func.attr == "AtomicFile"


@register
class AtomicFileRule(_LifecycleRule):
    rule_id = "RES006"
    summary = "AtomicFile handle not closed/aborted on every path"
    hint = ("use `with AtomicFile(...) as fh:` or close()/abort() in a "
            "try/finally — an interrupted writer strands the temp file "
            "and the artifact is never published (nor cleaned up)")

    def check_function(self, module, func):
        # `with AtomicFile(...)` commits/aborts via __exit__: skip any
        # acquire that appears as a with-item context expression.
        with_calls = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for call in _calls_in(item.context_expr):
                        with_calls.add(call)

        def match(call: ast.Call) -> bool:
            return _is_atomic_open(call) and call not in with_calls

        cfg = build_cfg(func)
        for node in cfg.statement_nodes():
            name, call = _binding_of(node.stmt, match)
            if call is None:
                continue
            if name is None:
                yield call.lineno, ("AtomicFile opened and immediately "
                                    "dropped — its content can never be "
                                    "published")
                continue
            if name == "<untracked>":
                continue  # bound into a structure: assume handed off
            if _name_escapes(func, name, node.stmt):
                continue

            def is_release(stmt: ast.stmt, name=name) -> bool:
                # Either outcome of the protocol — publish or discard —
                # releases the handle (and the temp file behind it).
                for rel in _calls_in(stmt):
                    attr, recv = _attr_call(rel)
                    if attr in ("abort", "close") \
                            and isinstance(recv, ast.Name) \
                            and recv.id == name:
                        return True
                return False

            leaks = leaks_for(cfg, node, is_release,
                              _rebind_of_name(name, node.stmt))
            if leaks:
                yield call.lineno, _leak_message(
                    f"atomic-file handle {name!r}", leaks[0])
