"""Determinism lint rules — the rule registry and the stock rules.

Each rule inspects one parsed module (a :class:`ModuleInfo`) and yields
``(line, message)`` pairs; the driver in :mod:`repro.analysis.linter` turns
them into :class:`~repro.analysis.linter.Finding`s, applies pragma
suppressions and renders reports.

The rules encode the repo's determinism contract (DESIGN.md §7/§8):

=======  ==============================================================
DET001   wall-clock use (``time.time``/``datetime.now``/...)
DET002   module-level ``random.*`` instead of a seeded ``random.Random``
DET003   unordered iteration (set/frozenset/dict views) feeding
         scheduling or fan-out calls without ``sorted(...)``
DET004   ``sum()``/``+=`` accumulation over sets (float addition is
         order-sensitive)
DET005   direct ``random.Random(...)`` construction outside the
         sanctioned substream helper (:mod:`repro.util.rng`)
SIM001   broad ``except`` around a ``yield`` in a generator process body
         that swallows whatever is thrown there without re-raising
SIM002   ``yield`` of a statically-known non-event in a process
         generator
RES001   a span opened with ``start_span`` outside a ``with`` and never
         handed off
RES004   a ``HistoryStore`` / ``sqlite3.connect`` handle opened outside a
         ``with`` and never handed off
=======  ==============================================================

Everything here is stdlib-``ast`` based; the analyses are deliberately
shallow (single module, local name inference only) so they stay fast,
dependency-free and predictable — a rule fires only where the hazard is
statically decidable.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

__all__ = ["ModuleInfo", "Rule", "RULES", "register", "all_rules"]


# ---------------------------------------------------------------------------
# Shared AST helpers


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk descendants without entering nested function/class scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _own_nodes_of_stmts(stmts: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    for stmt in stmts:
        yield stmt
        yield from _own_nodes(stmt)


def _attr_name(node: ast.AST) -> Optional[str]:
    """Terminal identifier of a Name or dotted Attribute (``a.b.c`` → c)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ModuleInfo:
    """One parsed module plus the shared facts rules keep re-deriving."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        #: local alias -> imported module name ("import time as t" → t: time)
        self.module_aliases: dict[str, str] = {}
        #: local name -> (module, original name) for "from m import x as y"
        self.from_imports: dict[str, tuple] = {}
        self.functions: list = []
        #: every call in the module, in ``ast.walk`` order
        self.calls: list[ast.Call] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self.calls.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.append(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module, alias.name)

    def aliases_of(self, module: str) -> set:
        return {alias for alias, mod in self.module_aliases.items()
                if mod == module}

    def is_generator(self, func: ast.AST) -> bool:
        return any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in _own_nodes(func))


# ---------------------------------------------------------------------------
# Registry


class Rule:
    """One lint rule. Subclasses set the class attributes and implement
    :meth:`check`, yielding ``(line, message)`` pairs."""

    rule_id: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        raise NotImplementedError


RULES: dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule to the registry (keyed by rule id)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls()
    return cls


def all_rules() -> list:
    return [RULES[rule_id] for rule_id in sorted(RULES)]


# ---------------------------------------------------------------------------
# DET001 — wall-clock use


_TIME_FNS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns", "process_time_ns", "localtime",
    "gmtime",
})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


@register
class WallClockRule(Rule):
    rule_id = "DET001"
    summary = "wall-clock read in simulation code"
    hint = ("use simulated time (env.now); benchmarks may opt out with a "
            "file pragma `# repro: allow-file[DET001]`")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        time_aliases = module.aliases_of("time")
        dt_module_aliases = module.aliases_of("datetime")
        dt_class_aliases = {
            name for name, (mod, orig) in module.from_imports.items()
            if mod == "datetime" and orig in ("datetime", "date")}
        time_fn_names = {
            name for name, (mod, orig) in module.from_imports.items()
            if mod == "time" and orig in _TIME_FNS}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                base, attr = func.value.id, func.attr
                if base in time_aliases and attr in _TIME_FNS:
                    yield node.lineno, f"call to time.{attr}() reads the wall clock"
                elif base in dt_class_aliases and attr in _DATETIME_FNS:
                    yield node.lineno, f"call to datetime.{attr}() reads the wall clock"
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id in dt_module_aliases
                    and func.value.attr in ("datetime", "date")
                    and func.attr in _DATETIME_FNS):
                yield (node.lineno,
                       f"call to datetime.{func.value.attr}.{func.attr}() "
                       f"reads the wall clock")
            elif isinstance(func, ast.Name) and func.id in time_fn_names:
                yield (node.lineno,
                       f"call to {func.id}() (imported from time) reads the "
                       f"wall clock")


# ---------------------------------------------------------------------------
# DET002 — module-level random


@register
class ModuleRandomRule(Rule):
    rule_id = "DET002"
    summary = "module-level random.* shares unseeded global RNG state"
    hint = ("thread a seeded random.Random (or numpy Generator) through "
            "instead of the random module's global stream")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        random_aliases = module.aliases_of("random")
        for name, (mod, orig) in module.from_imports.items():
            if mod == "random" and orig not in ("Random",):
                # The import itself is the hazard: the bound name *is* the
                # global stream's method.
                for node in ast.walk(module.tree):
                    if (isinstance(node, ast.ImportFrom)
                            and node.module == "random"):
                        for alias in node.names:
                            if alias.name == orig:
                                yield (node.lineno,
                                       f"from random import {orig} binds the "
                                       f"module-global RNG stream")
                break
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in random_aliases
                    and node.func.attr != "Random"):
                yield (node.lineno,
                       f"random.{node.func.attr}() uses the module-global "
                       f"RNG stream")


# ---------------------------------------------------------------------------
# set-ish expression inference (shared by DET003/DET004)


_DICT_VIEW_ATTRS = frozenset({"keys", "values", "items"})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _setish_expr(expr: ast.AST, setish_names: set,
                 include_views: bool) -> bool:
    """Is ``expr`` statically an unordered collection?

    ``include_views`` additionally treats zero-argument ``.keys()`` /
    ``.values()`` / ``.items()`` calls as unordered (their order is
    insertion order — deterministic per run, but implicit).
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in setish_names
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (include_views and isinstance(func, ast.Attribute)
                and func.attr in _DICT_VIEW_ATTRS
                and not expr.args and not expr.keywords):
            return True
        # list()/tuple()/iter() preserve whatever (non-)order came in.
        if (isinstance(func, ast.Name) and func.id in ("list", "tuple", "iter")
                and len(expr.args) == 1):
            return _setish_expr(expr.args[0], setish_names, include_views)
        if isinstance(func, ast.Name) and func.id == "enumerate" and expr.args:
            return _setish_expr(expr.args[0], setish_names, include_views)
        # s.union(...) / s.intersection(...) and friends stay sets.
        if (isinstance(func, ast.Attribute)
                and func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference", "copy")
                and _setish_expr(func.value, setish_names, include_views)):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_BINOPS):
        return (_setish_expr(expr.left, setish_names, include_views)
                or _setish_expr(expr.right, setish_names, include_views))
    return False


def _setish_names_in(func: ast.AST, include_views: bool) -> set:
    """Local names assigned from set-producing expressions, to a fixpoint
    over two passes (enough for the chained-assignment cases that occur in
    practice)."""
    names: set = set()
    for _ in range(2):
        before = len(names)
        for node in _own_nodes(func):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _setish_expr(node.value, names, include_views)):
                names.add(node.targets[0].id)
        if len(names) == before:
            break
    return names


def _is_sorted_call(expr: ast.AST) -> bool:
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted")


_FANOUT_ATTRS = frozenset({
    "process", "schedule", "_schedule", "timeout", "succeed", "fail",
    "notify", "call", "multicast", "send",
})


def _has_fanout_call(nodes: Iterable[ast.AST]) -> Optional[str]:
    """First scheduling/fan-out call among ``nodes``, or ``None``."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _FANOUT_ATTRS:
                return func.attr
            # Event-callback registration: something.callbacks.append(...)
            if (func.attr == "append" and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "callbacks"):
                return "callbacks.append"
    return None


# ---------------------------------------------------------------------------
# DET003 — unordered iteration feeding scheduling / fan-out


@register
class UnorderedFanoutRule(Rule):
    rule_id = "DET003"
    summary = "unordered iteration feeds scheduling/fan-out"
    hint = "iterate over sorted(...) so the fan-out order is explicit"

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            setish = _setish_names_in(func, include_views=True)
            for node in _own_nodes(func):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if _is_sorted_call(node.iter):
                        continue
                    if not _setish_expr(node.iter, setish, include_views=True):
                        continue
                    fanout = _has_fanout_call(_own_nodes_of_stmts(node.body))
                    if fanout:
                        yield (node.lineno,
                               f"iteration over an unordered collection "
                               f"drives {fanout}(); scheduling order is "
                               f"implicit")
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp)):
                    gen = node.generators[0]
                    if _is_sorted_call(gen.iter):
                        continue
                    if not _setish_expr(gen.iter, setish, include_views=True):
                        continue
                    fanout = _has_fanout_call(ast.walk(node.elt))
                    if fanout:
                        yield (node.lineno,
                               f"comprehension over an unordered collection "
                               f"drives {fanout}(); scheduling order is "
                               f"implicit")


# ---------------------------------------------------------------------------
# DET004 — order-sensitive accumulation over sets


@register
class UnorderedAccumulationRule(Rule):
    rule_id = "DET004"
    summary = "accumulation over a set (float addition is order-sensitive)"
    hint = "accumulate over sorted(...) so the reduction order is fixed"

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            setish = _setish_names_in(func, include_views=False)
            for node in _own_nodes(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "sum" and node.args):
                    arg = node.args[0]
                    if _setish_expr(arg, setish, include_views=False):
                        yield (node.lineno,
                               "sum() over a set: the reduction order is "
                               "whatever the hash layout gives")
                    elif (isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                            and _setish_expr(arg.generators[0].iter, setish,
                                             include_views=False)
                            and not _is_sorted_call(arg.generators[0].iter)):
                        yield (node.lineno,
                               "sum() over a set-driven comprehension: the "
                               "reduction order is whatever the hash layout "
                               "gives")
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if (_setish_expr(node.iter, setish, include_views=False)
                            and not _is_sorted_call(node.iter)
                            and any(isinstance(sub, ast.AugAssign)
                                    and isinstance(sub.op, ast.Add)
                                    for sub in _own_nodes_of_stmts(node.body))):
                        yield (node.lineno,
                               "+= accumulation while iterating a set: the "
                               "reduction order is whatever the hash layout "
                               "gives")


# ---------------------------------------------------------------------------
# DET005 — ad-hoc random.Random construction


@register
class AdHocRandomRule(Rule):
    rule_id = "DET005"
    summary = "direct random.Random construction bypasses the substream scheme"
    hint = ("derive generators with repro.util.rng.substream(seed, *names) "
            "so streams are domain-separated; the sim kernel's tie-break "
            "RNG is the sanctioned exception (`# repro: allow[DET005]`)")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        random_aliases = module.aliases_of("random")
        # "from random import Random [as R]" bindings.
        class_names = {
            name for name, (mod, orig) in module.from_imports.items()
            if mod == "random" and orig == "Random"}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_aliases
                    and func.attr == "Random"):
                yield (node.lineno,
                       f"{func.value.id}.Random(...) creates an ad-hoc "
                       f"stream outside the substream scheme")
            elif isinstance(func, ast.Name) and func.id in class_names:
                yield (node.lineno,
                       f"{func.id}(...) creates an ad-hoc stream outside "
                       f"the substream scheme")


# ---------------------------------------------------------------------------
# SIM001 — broad except around a yield in process bodies


def _is_broad(type_node: Optional[ast.AST]) -> bool:
    if type_node is None:
        return True  # bare except
    nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
             else [type_node])
    return any(_attr_name(node) in ("Exception", "BaseException")
               for node in nodes)


@register
class BroadExceptInProcessRule(Rule):
    rule_id = "SIM001"
    summary = "broad except around a yield swallows every failure thrown there"
    hint = ("catch the specific failure types instead (or re-raise inside); "
            "a deliberate fault-isolation catch takes "
            "`# repro: allow[SIM001] - <why>`")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            if not module.is_generator(func):
                continue
            for node in _own_nodes(func):
                if not isinstance(node, ast.Try):
                    continue
                # Event failures surface at yield points: a try block
                # without a yield cannot swallow one.
                if not any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                           for sub in _own_nodes_of_stmts(node.body)):
                    continue
                for handler in node.handlers:
                    if not _is_broad(handler.type):
                        continue
                    reraises = any(
                        isinstance(sub, ast.Raise) and sub.exc is None
                        for sub in _own_nodes_of_stmts(handler.body))
                    if not reraises:
                        yield (handler.lineno,
                               "broad except around a yield in a process "
                               "generator swallows every failure thrown at "
                               "the yield")


# ---------------------------------------------------------------------------
# SIM002 — yield of a statically-known non-event


_EVENTISH_ATTRS = frozenset({
    "timeout", "event", "process", "all_of", "any_of", "call", "request",
    "exert", "get", "put", "take", "write",
})

_LITERAL_NODES = (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set,
                  ast.JoinedStr)


def _is_eventish_yield(node: ast.AST) -> bool:
    if isinstance(node, ast.YieldFrom):
        return True
    if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
        func = node.value.func
        return isinstance(func, ast.Attribute) and func.attr in _EVENTISH_ATTRS
    return False


@register
class YieldNonEventRule(Rule):
    rule_id = "SIM002"
    summary = "yield of a non-Event in a process generator"
    hint = ("a process generator must yield Events (env.timeout(...), "
            "endpoint.call(...)); return data instead of yielding it")

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        for func in module.functions:
            yields = [node for node in _own_nodes(func)
                      if isinstance(node, (ast.Yield, ast.YieldFrom))]
            # Only generators that demonstrably talk to the kernel are
            # process bodies; plain data generators may yield anything.
            if not any(_is_eventish_yield(node) for node in yields):
                continue
            for node in yields:
                if not isinstance(node, ast.Yield):
                    continue
                if node.value is None:
                    yield (node.lineno,
                           "bare yield in a process generator (yields None, "
                           "not an Event)")
                elif isinstance(node.value, _LITERAL_NODES):
                    yield (node.lineno,
                           "yield of a literal in a process generator — the "
                           "kernel only accepts Events")


# ---------------------------------------------------------------------------
# RES001 / RES004 — spans and history stores close by construction
#
# Spans and HistoryStore handles are context managers, so the whole
# lifecycle question reduces to a syntactic one: every acquire is a
# ``with`` item, or a value handed off to someone else (returned, yielded,
# passed as an argument, stored into an attribute or container, aliased,
# or captured by a closure). A local binding that is neither is a finding;
# so is an acquire whose result is dropped on the floor (DESIGN §13).


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


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


def _binding_of(stmt: ast.stmt, match_call) -> tuple:
    """``(bound_name, call)`` when ``stmt`` binds a matching acquire call to
    a plain local name; ``(None, call)`` when the call's result is dropped;
    ``("<untracked>", call)`` when it is bound to something we cannot
    track (tuple target, attribute, ...) or sits inside a compound
    statement. ``(None, None)`` when the statement has no matching call."""
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


class _ByConstructionRule(Rule):
    """Base: every call a subclass's ``is_acquire(call)`` matches must be
    a ``with`` item or handed off; a local binding that is neither is
    reported as ``<what> <name>``, a dropped result with
    ``drop_message``."""

    what = ""
    drop_message = ""

    def check(self, module: ModuleInfo) -> Iterator[tuple]:
        if not any(self.is_acquire(call) for call in module.calls):
            return
        for func in module.functions:
            with_items = {call for node in _own_nodes(func)
                          if isinstance(node, (ast.With, ast.AsyncWith))
                          for item in node.items
                          for call in _calls_in(item.context_expr)}

            def match(call):
                return self.is_acquire(call) and call not in with_items

            for stmt in _own_nodes(func):
                if not isinstance(stmt, ast.stmt):
                    continue
                name, call = _binding_of(stmt, match)
                if call is None or name == "<untracked>":
                    continue  # stored into a structure: handed off
                if name is None:
                    yield call.lineno, self.drop_message
                elif not _name_escapes(func, name, stmt):
                    yield (call.lineno,
                           f"{self.what} {name!r} is opened outside a "
                           f"`with` and never handed off")


@register
class SpanLifecycleRule(_ByConstructionRule):
    rule_id = "RES001"
    summary = "span opened but not ended on every path"
    hint = ("open it in a `with` (`with tracer.start_span(...) as span:` "
            "ends a still-open span as 'error' on the way out); a span "
            "that outlives the function must be handed off explicitly")
    what = "span"
    drop_message = ("span started and immediately dropped — it can never "
                    "be ended")

    @staticmethod
    def is_acquire(call: ast.Call) -> bool:
        return (isinstance(call.func, ast.Attribute)
                and call.func.attr == "start_span")


@register
class StoreLifecycleRule(_ByConstructionRule):
    rule_id = "RES004"
    summary = "sqlite/HistoryStore handle not closed on every path"
    hint = ("open it in a `with` (`with HistoryStore(...) as store:`) — "
            "an unclosed WAL connection can hold the database lock past "
            "the run")
    what = "history-store handle"
    drop_message = ("history-store handle opened and immediately dropped — "
                    "the connection can never be closed")

    @staticmethod
    def is_acquire(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "HistoryStore"
        return isinstance(func, ast.Attribute) and (
            func.attr == "HistoryStore"
            or (func.attr == "connect" and isinstance(func.value, ast.Name)
                and func.value.id == "sqlite3"))
