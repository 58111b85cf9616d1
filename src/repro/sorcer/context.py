"""Service contexts — the data an exertion federation collaborates on.

A :class:`ServiceContext` is a tree of ``path -> value`` associations with
slash-separated paths (``"sensor/temperature/value"``), input/output path
markings and a designated *return path*. It is the SORCER analogue of a call
frame shared by the whole federation: requestors put inputs in, providers
write outputs back, and the requestor reads results out of the returned
exertion's context (§IV.D).
"""

from __future__ import annotations

import copy
import dataclasses
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from ..net.wire import WireSized, slot_names, slots_wire_size

__all__ = ["ServiceContext", "ContextError", "structural_copy",
           "register_plain_shapes"]

_MISSING = object()


class ContextError(KeyError):
    """A required path is absent from the context."""


def _validate_path(path: str) -> str:
    if not isinstance(path, str) or not path:
        raise ValueError(f"invalid context path {path!r}")
    if path.startswith("/") or path.endswith("/") or "//" in path:
        raise ValueError(f"malformed context path {path!r}")
    return path


class ServiceContext(WireSized):
    """Hierarchical, path-addressed collaboration data."""

    __slots__ = ("name", "_data", "_in_paths", "_out_paths", "return_path")

    def __init__(self, name: str = "context"):
        self.name = name
        self._data: dict[str, Any] = {}
        self._in_paths: set[str] = set()
        self._out_paths: set[str] = set()
        self.return_path: str = "result/value"

    # -- core access -----------------------------------------------------------

    def put_value(self, path: str, value: Any) -> "ServiceContext":
        self._data[_validate_path(path)] = value
        return self

    def get_value(self, path: str, default: Any = _MISSING) -> Any:
        value = self._data.get(_validate_path(path), _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise ContextError(f"no value at path {path!r} in context {self.name!r}")
            return default
        return value

    def has_path(self, path: str) -> bool:
        return path in self._data

    def paths(self) -> list[str]:
        return sorted(self._data.keys())

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, path: str) -> bool:
        return self.has_path(path)

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self._data.items()))

    # -- direction markings --------------------------------------------------------

    def put_in_value(self, path: str, value: Any) -> "ServiceContext":
        self.put_value(path, value)
        self._in_paths.add(path)
        return self

    def put_out_value(self, path: str, value: Any = None) -> "ServiceContext":
        self.put_value(path, value)
        self._out_paths.add(path)
        return self

    def mark_in(self, path: str) -> None:
        if path not in self._data:
            raise ContextError(f"cannot mark unknown path {path!r}")
        self._in_paths.add(path)

    def in_paths(self) -> list[str]:
        return sorted(self._in_paths)

    def out_paths(self) -> list[str]:
        return sorted(self._out_paths)

    # -- return value ----------------------------------------------------------------

    def set_return_path(self, path: str) -> "ServiceContext":
        self.return_path = _validate_path(path)
        return self

    def set_return_value(self, value: Any) -> "ServiceContext":
        return self.put_value(self.return_path, value)

    def get_return_value(self, default: Any = _MISSING) -> Any:
        return self.get_value(self.return_path, default)

    # -- structure ops ------------------------------------------------------------------

    def copy(self) -> "ServiceContext":
        return structural_copy(self, {})

    #: Charged as the ``__dict__`` it had before it grew ``__slots__``: the
    #: golden traces depend on these bytes.
    wire_size = slots_wire_size

    def as_dict(self) -> dict:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ServiceContext {self.name!r} {len(self._data)} paths>"


# -- structural copy -------------------------------------------------------------
#
# An exertion crossing a provider boundary is deep-copied (§IV.D). The shapes
# that cross are few and known, so each gets a copier that rebuilds exactly
# what ``copy.deepcopy`` would; anything else *is* handed to ``copy.deepcopy``
# with the same memo, so aliasing holds across both.

def structural_copy(value: Any, memo: dict) -> Any:
    """Deep copy of ``value``; ``memo`` maps ``id(original) -> copy`` as
    ``copy.deepcopy``'s does."""
    copier = _COPIERS[type(value)]
    return value if copier is None else copier(value, memo)


def _copy_list(x: list, memo: dict) -> list:
    y = memo.get(id(x))
    if y is None:
        y = memo[id(x)] = []
        for item in x:
            y.append(structural_copy(item, memo))
    return y


def _copy_dict(x: dict, memo: dict) -> dict:
    y = memo.get(id(x))
    if y is None:
        y = memo[id(x)] = {}
        for key, value in x.items():
            y[structural_copy(key, memo)] = structural_copy(value, memo)
    return y


def _copy_set(x: set, memo: dict) -> set:
    y = memo.get(id(x))
    if y is None:
        y = memo[id(x)] = set()
        for item in x:
            y.add(structural_copy(item, memo))
    return y


def _copy_tuple(x: tuple, memo: dict) -> tuple:
    y = memo.get(id(x))
    if y is not None:
        return y
    items = [structural_copy(item, memo) for item in x]
    # A tuple reachable from its own elements was memoized while they copied.
    y = memo.get(id(x))
    if y is not None:
        return y
    for old, new in zip(x, items):
        if old is not new:
            y = memo[id(x)] = tuple(items)
            return y
    return x  # nothing inside changed identity: immutable all the way down


def _slots_copier(cls: type) -> Callable:
    names = slot_names(cls)

    def copy_slots(x: Any, memo: dict) -> Any:
        y = memo.get(id(x))
        if y is None:
            y = memo[id(x)] = cls.__new__(cls)
            for name in names:
                setattr(y, name, structural_copy(getattr(x, name), memo))
        return y

    return copy_slots


def _copy_frozen(x: Any, memo: dict) -> Any:
    """A frozen dataclass is shared when everything it holds is."""
    for value in x.__dict__.values():
        if structural_copy(value, memo) is not value:
            return copy.deepcopy(x, memo)
    return x


#: A class that customises copying or pickling is not a plain value:
#: ``copy.deepcopy`` honours the hook, so it gets the instance.
_COPY_HOOKS = ("__deepcopy__", "__reduce_ex__", "__reduce__")


class _CopierTable(dict):
    """``type -> copier(value, memo)``, ``None`` for immutable leaves that
    are shared. Keys are exact types: a subclass may add state or hooks, so a
    miss is classified on its own — once — and, unless it is an enum or a
    plain frozen dataclass, left to ``copy.deepcopy``."""

    def __missing__(self, cls: type) -> Optional[Callable]:
        if issubclass(cls, Enum):
            copier = None
        elif (dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
                and cls.__dictoffset__  # state is the __dict__: no __slots__
                and all(getattr(cls, hook, None) is getattr(object, hook, None)
                        for hook in _COPY_HOOKS)):
            copier = _copy_frozen
        else:
            copier = copy.deepcopy
        self[cls] = copier
        return copier


_COPIERS = _CopierTable({
    type(None): None, bool: None, int: None, float: None, str: None,
    bytes: None,
    list: _copy_list, dict: _copy_dict, set: _copy_set, tuple: _copy_tuple,
})


def register_plain_shapes(*classes: type) -> None:
    """Add classes whose instances are fully described by their
    ``__slots__`` (no ``__dict__``, no copy or pickle hooks) to the known
    shapes: copied as a new instance, without ``__init__``, holding a copy
    of each slot. Exactly these classes — not their subclasses."""
    for cls in classes:
        if cls.__dictoffset__:
            raise TypeError(f"{cls.__name__} keeps state outside its slots")
        _COPIERS[cls] = _slots_copier(cls)


register_plain_shapes(ServiceContext)
