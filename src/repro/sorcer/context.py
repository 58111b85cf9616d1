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
from typing import Any, Iterator, Optional

from ..net.wire import WireSized, estimate_size
from ..sim import sanitizer as _san

__all__ = ["ServiceContext", "ContextError"]

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

    def __init__(self, name: str = "context", data: Optional[dict] = None):
        self.name = name
        self._data: dict[str, Any] = {}
        self._in_paths: set[str] = set()
        self._out_paths: set[str] = set()
        self.return_path: str = "result/value"
        if data:
            for path, value in data.items():
                self.put_value(path, value)

    # -- core access -----------------------------------------------------------

    def put_value(self, path: str, value: Any) -> "ServiceContext":
        if _san._active is not None:
            _san._active.record(("ctx", id(self), path), "w",
                                f"ServiceContext {self.name!r} path {path!r}")
        self._data[_validate_path(path)] = value
        return self

    def get_value(self, path: str, default: Any = _MISSING) -> Any:
        if _san._active is not None:
            _san._active.record(("ctx", id(self), path), "r",
                                f"ServiceContext {self.name!r} path {path!r}")
        value = self._data.get(_validate_path(path), _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise ContextError(f"no value at path {path!r} in context {self.name!r}")
            return default
        return value

    def has_path(self, path: str) -> bool:
        return path in self._data

    def remove(self, path: str) -> None:
        self._data.pop(path, None)
        self._in_paths.discard(path)
        self._out_paths.discard(path)

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

    def subcontext(self, prefix: str) -> "ServiceContext":
        """New context holding the subtree under ``prefix`` (paths relativized)."""
        prefix = _validate_path(prefix)
        sub = ServiceContext(name=f"{self.name}/{prefix}")
        anchor = prefix + "/"
        for path, value in self._data.items():
            if path == prefix:
                sub.put_value(prefix.rsplit("/", 1)[-1], value)
            elif path.startswith(anchor):
                sub.put_value(path[len(anchor):], value)
        return sub

    def merge(self, other: "ServiceContext", prefix: str = "") -> "ServiceContext":
        """Copy every association of ``other`` into this context, optionally
        under ``prefix``."""
        for path, value in other._data.items():
            target = f"{prefix}/{path}" if prefix else path
            self.put_value(target, value)
        for path in other._in_paths:
            self._in_paths.add(f"{prefix}/{path}" if prefix else path)
        for path in other._out_paths:
            self._out_paths.add(f"{prefix}/{path}" if prefix else path)
        return self

    def copy(self) -> "ServiceContext":
        return copy.deepcopy(self)

    def wire_size(self) -> int:
        # Sizes exactly as the generic __dict__ fallback charged before this
        # class grew __slots__ — the golden traces depend on these bytes.
        return 16 + estimate_size({
            "name": self.name,
            "_data": self._data,
            "_in_paths": self._in_paths,
            "_out_paths": self._out_paths,
            "return_path": self.return_path,
        })

    def as_dict(self) -> dict:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ServiceContext {self.name!r} {len(self._data)} paths>"
