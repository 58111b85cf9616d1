"""Intraprocedural control-flow graphs over stdlib ``ast`` functions.

The resource-lifecycle rules (:mod:`repro.analysis.lifecycle`) need one
question answered precisely: *from this statement, which statements can run
next — including when something raises?* This module builds a small CFG per
function that models exactly the control constructs the repo's process
bodies use:

* straight-line statements, ``if``/``for``/``while`` (with ``break`` /
  ``continue`` / ``else``), ``with``, ``return`` and ``raise``;
* ``try``/``except``/``finally``: every statement that *can raise* gets an
  exceptional edge to the innermost handler dispatch; handlers that are not
  total (they name something narrower than ``Exception``) propagate onward,
  and exceptional routes run the ``finally`` body before leaving;
* a ``yield`` is where the kernel throws a failed event into the
  generator, so every yield point gets an exceptional edge — inside a
  ``finally`` body too.

The model is deliberately *may*-flow: any ``Call`` is assumed able to
raise. That over-approximates paths (fine for a lint that reports "this
resource *may* leak") and the lifecycle pass decides which exits are worth
reporting. The ``finally`` body is shared between its normal and
exceptional routes, so a handful of infeasible cross-route paths exist;
they can only ever under-report (a release on the other route masks a
leak), never invent one.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

__all__ = ["CfgNode", "Cfg", "build_cfg", "can_raise", "has_yield",
           "NORMAL", "EXC"]

#: Edge kinds. ``normal`` — ordinary fall-through / branch. ``exc`` — a
#: statement raised, or a failure was thrown in at a yield point.
NORMAL = "normal"
EXC = "exc"

_RAISING_EXPRS = (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_own_exprs(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested scopes."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if not isinstance(current, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(current))


def can_raise(node: ast.AST) -> bool:
    """May evaluating ``node`` raise? Calls, yields, awaits and explicit
    raises can; plain data plumbing is assumed safe (attribute and
    subscript errors on the happy path are programming errors the test
    suite catches, not control flow the CFG should model)."""
    if isinstance(node, ast.Raise):
        return True
    return any(isinstance(sub, _RAISING_EXPRS)
               for sub in _walk_own_exprs(node))


def has_yield(node: ast.AST) -> bool:
    """Does ``node`` contain a yield point (where a failure can surface)?"""
    return any(isinstance(sub, (ast.Yield, ast.YieldFrom))
               for sub in _walk_own_exprs(node))


def _is_total_handler(handler: ast.ExceptHandler) -> bool:
    """Catches everything that matters? (bare, Exception, BaseException)"""
    if handler.type is None:
        return True
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in nodes:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name in ("Exception", "BaseException"):
            return True
    return False


class CfgNode:
    """One CFG node: a simple statement, or a synthetic entry/exit/join."""

    __slots__ = ("index", "stmt", "line", "label")

    def __init__(self, index: int, stmt: Optional[ast.AST], label: str):
        self.index = index
        self.stmt = stmt
        self.line = getattr(stmt, "lineno", 0)
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CfgNode {self.index} {self.label} line={self.line}>"


class Cfg:
    """The graph: nodes plus labelled successor edges."""

    def __init__(self, func: ast.AST):
        self.func = func
        self.nodes: list[CfgNode] = []
        #: node index -> list of (successor index, edge kind)
        self.succ: dict[int, list] = {}
        self.entry = self._new(None, "entry")
        #: Normal return / fall-off-the-end exit.
        self.exit = self._new(None, "exit")
        #: An exception left the function un-handled.
        self.raise_exit = self._new(None, "raise-exit")

    def _new(self, stmt: Optional[ast.AST], label: str) -> CfgNode:
        node = CfgNode(len(self.nodes), stmt, label)
        self.nodes.append(node)
        self.succ[node.index] = []
        return node

    def _edge(self, src: CfgNode, dst: CfgNode, kind: str = NORMAL) -> None:
        pair = (dst.index, kind)
        if pair not in self.succ[src.index]:
            self.succ[src.index].append(pair)

    def successors(self, node: CfgNode) -> Iterator[tuple]:
        for index, kind in self.succ[node.index]:
            yield self.nodes[index], kind

    def statement_nodes(self) -> Iterator[CfgNode]:
        for node in self.nodes:
            if node.stmt is not None and not isinstance(node.stmt,
                                                        ast.ExceptHandler):
                yield node


class _Frame:
    """Loop / exception context surrounding the statements being wired.

    ``return_target`` is where a ``return`` transfers control: the exit
    node at top level, or the enclosing ``finally`` body's entry pad when
    returning out of a ``try`` — Python runs every finally on the way out
    and the CFG must too, or a release in a finally looks skipped.
    """

    __slots__ = ("exc_target", "break_target", "continue_target",
                 "return_target")

    def __init__(self, exc_target: CfgNode,
                 break_target: Optional[CfgNode],
                 continue_target: Optional[CfgNode],
                 return_target: CfgNode):
        self.exc_target = exc_target
        self.break_target = break_target
        self.continue_target = continue_target
        self.return_target = return_target


def build_cfg(func: ast.AST) -> Cfg:
    """Build the CFG of one ``FunctionDef`` / ``AsyncFunctionDef``."""
    cfg = Cfg(func)
    builder = _Builder(cfg)
    last = builder.wire_block(func.body, cfg.entry,
                              _Frame(cfg.raise_exit, None, None, cfg.exit))
    if last is not None:
        cfg._edge(last, cfg.exit)
    return cfg


class _Builder:
    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        #: >0 while wiring ``finally`` bodies. Plain calls there are
        #: assumed not to raise (cleanup code that throws is its own bug,
        #: and modelling it flags every multi-statement finally); yield
        #: points still get their edges — the kernel throws failures in
        #: wherever a generator is suspended, cleanup or not.
        self.cleanup_depth = 0

    # Each wire_* method connects a construct after predecessor ``pred``
    # and returns the node that falls through to whatever follows (or
    # ``None`` when control cannot fall through: return/raise/...).

    def wire_block(self, stmts, pred: Optional[CfgNode],
                   frame: _Frame) -> Optional[CfgNode]:
        for stmt in stmts:
            if pred is None:
                break  # unreachable code after return/raise
            pred = self.wire_stmt(stmt, pred, frame)
        return pred

    def _exc_edges(self, node: CfgNode, source: ast.AST,
                   frame: _Frame) -> None:
        """Wire the exceptional out-edges of ``node``, judging raise- and
        yield-ability from ``source`` (for compound statements that is the
        head expression only, not the nested body)."""
        if not can_raise(source):
            return
        if self.cleanup_depth and not has_yield(source) \
                and not isinstance(source, ast.Raise):
            return  # cleanup calls are assumed not to raise
        self.cfg._edge(node, frame.exc_target, EXC)

    def wire_stmt(self, stmt: ast.stmt, pred: CfgNode,
                  frame: _Frame) -> Optional[CfgNode]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            node = cfg._new(stmt, "if")
            cfg._edge(pred, node)
            self._exc_edges(node, stmt.test, frame)
            join = cfg._new(None, "join")
            then_last = self.wire_block(stmt.body, node, frame)
            if then_last is not None:
                cfg._edge(then_last, join)
            if stmt.orelse:
                else_last = self.wire_block(stmt.orelse, node, frame)
                if else_last is not None:
                    cfg._edge(else_last, join)
            else:
                cfg._edge(node, join)  # test-false falls through
            return join
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg._new(stmt, "loop-head")
            cfg._edge(pred, head)
            head_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            self._exc_edges(head, head_expr, frame)
            after = cfg._new(None, "loop-after")
            body_frame = _Frame(frame.exc_target, after, head,
                                frame.return_target)
            body_last = self.wire_block(stmt.body, head, body_frame)
            if body_last is not None:
                cfg._edge(body_last, head)
            if stmt.orelse:
                else_last = self.wire_block(stmt.orelse, head, frame)
                if else_last is not None:
                    cfg._edge(else_last, after)
            else:
                cfg._edge(head, after)  # loop exhausted / test false
            return after
        if isinstance(stmt, ast.Try):
            return self.wire_try(stmt, pred, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = cfg._new(stmt, "with")
            cfg._edge(pred, node)
            for item in stmt.items:
                self._exc_edges(node, item.context_expr, frame)
            return self.wire_block(stmt.body, node, frame)
        if isinstance(stmt, ast.Return):
            node = cfg._new(stmt, "return")
            cfg._edge(pred, node)
            if stmt.value is not None:
                self._exc_edges(node, stmt.value, frame)
            cfg._edge(node, frame.return_target)
            return None
        if isinstance(stmt, ast.Raise):
            node = cfg._new(stmt, "raise")
            cfg._edge(pred, node)
            cfg._edge(node, frame.exc_target, EXC)
            return None
        if isinstance(stmt, ast.Break):
            node = cfg._new(stmt, "break")
            cfg._edge(pred, node)
            if frame.break_target is not None:
                cfg._edge(node, frame.break_target)
            return None
        if isinstance(stmt, ast.Continue):
            node = cfg._new(stmt, "continue")
            cfg._edge(pred, node)
            if frame.continue_target is not None:
                cfg._edge(node, frame.continue_target)
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            node = cfg._new(stmt, "def")  # nested scopes are opaque
            cfg._edge(pred, node)
            return node
        # Simple statement: assignment, expression, assert, delete, ...
        node = cfg._new(stmt, "stmt")
        cfg._edge(pred, node)
        self._exc_edges(node, stmt, frame)
        return node

    def wire_try(self, stmt: ast.Try, pred: CfgNode,
                 frame: _Frame) -> Optional[CfgNode]:
        cfg = self.cfg
        # Where exceptions raised in the body land.
        dispatch = cfg._new(None, "except-dispatch")
        join = cfg._new(None, "try-join")

        # The finally body runs on every route out of the statement. It is
        # wired once; routes pick their continuation among its out-edges
        # (shared-body approximation, see the module docstring).
        finally_entry: Optional[CfgNode] = None
        finally_last: Optional[CfgNode] = None
        if stmt.finalbody:
            finally_entry = cfg._new(None, "finally")
            self.cleanup_depth += 1
            try:
                finally_last = self.wire_block(stmt.finalbody, finally_entry,
                                               frame)
            finally:
                self.cleanup_depth -= 1

        def leave(src: CfgNode, target: CfgNode, kind: str = NORMAL) -> None:
            """Route ``src -> target`` through the finally body if any."""
            if finally_entry is None:
                cfg._edge(src, target, kind)
            else:
                cfg._edge(src, finally_entry, kind)
                if finally_last is not None:
                    cfg._edge(finally_last, target, kind)

        # Return / break / continue / handler-raise leaving this statement
        # must run the finally body on their way out. Each such route gets
        # a *pad*: statements jump to the pad, and pads that were actually
        # used are connected pad -> finally -> outer target afterwards
        # (connecting unused pads would fabricate skip-the-release paths).
        if finally_entry is None:
            body_frame = _Frame(dispatch, frame.break_target,
                                frame.continue_target, frame.return_target)
            handler_frame = frame
            pads = ()
        else:
            return_pad = cfg._new(None, "pad-return")
            exc_pad = cfg._new(None, "pad-exc")
            break_pad = (cfg._new(None, "pad-break")
                         if frame.break_target is not None else None)
            continue_pad = (cfg._new(None, "pad-continue")
                            if frame.continue_target is not None else None)
            body_frame = _Frame(dispatch, break_pad, continue_pad,
                                return_pad)
            handler_frame = _Frame(exc_pad, break_pad, continue_pad,
                                   return_pad)
            pads = ((return_pad, frame.return_target),
                    (exc_pad, frame.exc_target),
                    (break_pad, frame.break_target),
                    (continue_pad, frame.continue_target))
        body_last = self.wire_block(stmt.body, pred, body_frame)

        # Normal completion: body -> else -> (finally) -> join. The else
        # clause's exceptions are NOT caught by this statement's handlers.
        if body_last is not None:
            else_last = self.wire_block(stmt.orelse, body_last,
                                        handler_frame)
            if else_last is not None:
                leave(else_last, join)

        # Handlers: dispatch -> handler body -> (finally) -> join.
        total = False
        for handler in stmt.handlers:
            handler_entry = cfg._new(handler, "except")
            cfg._edge(dispatch, handler_entry)
            handler_last = self.wire_block(handler.body, handler_entry,
                                           handler_frame)
            if handler_last is not None:
                leave(handler_last, join)
            if _is_total_handler(handler):
                total = True
        if not total:
            # Something the handlers don't catch (or there are none)
            # propagates outward — through the finally body first.
            leave(dispatch, frame.exc_target, EXC)

        used = set()
        for succs in cfg.succ.values():
            for index, _kind in succs:
                used.add(index)
        for pad, target in pads:
            if pad is None or pad.index not in used:
                continue
            cfg._edge(pad, finally_entry)
            if finally_last is not None:
                cfg._edge(finally_last, target)
        return join
