"""The recursive wire-size estimator ``repro.net.wire`` shipped before sizing
was dispatched on ``type(obj)``, kept verbatim as the oracle the compiled
sizers are compared against (``test_wire_oracle.py``). Not used by ``src``.

Contexts and exertions have ``__slots__`` now, so the old estimator would ask
them for their own ``wire_size``. :func:`unslotted` rebuilds them as the
plain attribute-dict objects the estimator used to see instead."""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any

from repro.net.wire import WireSized
from repro.sorcer import Job, ServiceContext, Task

_ITEM_OVERHEAD = 4
_OBJECT_OVERHEAD = 16


def estimate_size(obj: Any) -> int:
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return _ITEM_OVERHEAD + len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return _ITEM_OVERHEAD + len(obj)
    if isinstance(obj, WireSized):
        return obj.wire_size()
    if isinstance(obj, Enum):
        return _ITEM_OVERHEAD + len(str(obj.value))
    if isinstance(obj, dict):
        return _ITEM_OVERHEAD + sum(
            estimate_size(k) + estimate_size(v) + _ITEM_OVERHEAD
            for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _ITEM_OVERHEAD + sum(
            estimate_size(item) + _ITEM_OVERHEAD for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _OBJECT_OVERHEAD + sum(
            estimate_size(getattr(obj, f.name))
            for f in dataclasses.fields(obj))
    if hasattr(obj, "__dict__"):
        return _OBJECT_OVERHEAD + estimate_size(vars(obj))
    return _OBJECT_OVERHEAD


def context_wire_size(ctx) -> int:
    """``ServiceContext.wire_size`` as it was: the five slots as a dict."""
    return 16 + estimate_size({
        "name": ctx.name,
        "_data": ctx._data,
        "_in_paths": ctx._in_paths,
        "_out_paths": ctx._out_paths,
        "return_path": ctx.return_path,
    })


def remote_ref_wire_size(ref) -> int:
    """``RemoteRef.wire_size`` as it was: recomputed on every call."""
    return 48 + len(ref.host) + sum(len(t) for t in ref.type_names)


class _Attributes:
    """An object that is nothing but its ``__dict__``."""

    def __init__(self, attributes: dict):
        self.__dict__.update(attributes)


_EXERTION_ATTRIBUTES = ("name", "context", "control", "status", "exceptions",
                        "trace", "principal")


def unslotted(value):
    """``value`` with every exertion and context in it, nested in tuples,
    lists and jobs, replaced by an object holding its attributes as a
    ``__dict__``, as each was before it had ``__slots__``."""
    if isinstance(value, (Task, Job)):
        extra = ("signature",) if isinstance(value, Task) else ("exertions",)
        return _Attributes({name: unslotted(getattr(value, name))
                            for name in _EXERTION_ATTRIBUTES + extra})
    if isinstance(value, ServiceContext):
        return _Attributes({"name": value.name, "_data": value._data,
                            "_in_paths": value._in_paths,
                            "_out_paths": value._out_paths,
                            "return_path": value.return_path})
    if isinstance(value, (list, tuple)):
        return type(value)(unslotted(item) for item in value)
    return value


def exertion_wire_size(exertion) -> int:
    """An exertion as it was charged: its attributes as a dict."""
    return estimate_size(unslotted(exertion))
