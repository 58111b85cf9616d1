"""Wire-size estimation and protocol overhead accounting.

The paper's motivation §II.1 argues that per-sensor IP traffic has a large
header overhead relative to tiny sensor readings. To *measure* that claim
(experiment E-OVH) every simulated message carries an estimated serialized
payload size plus a protocol-dependent header size. Sizes are estimates of
what a reasonable binary serialization would produce — they only need to be
consistent across the compared systems, not byte-exact.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any

__all__ = ["Protocol", "estimate_size", "header_size", "WireSized",
           "slot_names", "slots_wire_size"]


class Protocol(Enum):
    """Transport used by a message, determining per-packet header cost.

    Header sizes (bytes):

    * ``UDP``  — IPv4 (20) + UDP (8) = 28; used for discovery multicast.
    * ``TCP``  — IPv4 (20) + TCP (20) per segment, plus a notional 12-byte
      session framing = 52; used for plain point-to-point data (the
      direct-polling baseline).
    * ``JERI`` — TCP plus Jini-ERI method-invocation framing (method hash,
      object id, integrity metadata); we charge 52 + 96 = 148. All SORCER
      federated method invocations ride on this.
    """

    UDP = "udp"
    TCP = "tcp"
    JERI = "jeri"


_HEADER_BYTES = {
    Protocol.UDP: 28,
    Protocol.TCP: 52,
    Protocol.JERI: 148,
}


def header_size(protocol: Protocol) -> int:
    return _HEADER_BYTES[protocol]


class WireSized:
    """Mixin for objects that know their own serialized size."""

    __slots__ = ()

    def wire_size(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError


#: Per-element structural overhead (type tag + length) for containers.
_ITEM_OVERHEAD = 4
#: Class descriptor overhead charged once per object instance.
_OBJECT_OVERHEAD = 16


def estimate_size(obj: Any) -> int:
    """Estimate the serialized size of ``obj`` in bytes.

    Handles the payload vocabulary used throughout the framework: scalars,
    strings, containers, dataclasses and :class:`WireSized` objects. Unknown
    objects are charged a flat descriptor cost plus their ``__dict__``.

    Dispatch is on ``type(obj)``: :func:`_sizer_for` classifies each class
    once, and the sizer it picks is used for that class from then on.
    """
    return _SIZERS[type(obj)](obj)


def _size_1(obj: Any) -> int:
    return 1


def _size_8(obj: Any) -> int:
    return 8


def _size_str(obj: str) -> int:
    # ASCII text (nearly every path, name and unit) encodes to len() bytes.
    if obj.isascii():
        return _ITEM_OVERHEAD + len(obj)
    return _ITEM_OVERHEAD + len(obj.encode("utf-8"))


def _size_bytes(obj) -> int:
    return _ITEM_OVERHEAD + len(obj)


def _size_enum(obj: Enum) -> int:
    return _ITEM_OVERHEAD + len(str(obj.value))


def _size_dict(obj: dict) -> int:
    sizers = _SIZERS
    total = _ITEM_OVERHEAD
    for key, value in obj.items():
        total += (sizers[type(key)](key) + sizers[type(value)](value)
                  + _ITEM_OVERHEAD)
    return total


def _size_sequence(obj) -> int:
    sizers = _SIZERS
    total = _ITEM_OVERHEAD
    for item in obj:
        total += sizers[type(item)](item) + _ITEM_OVERHEAD
    return total


def _dataclass_sizer(cls: type):
    names = tuple(f.name for f in dataclasses.fields(cls))

    def size_dataclass(obj: Any) -> int:
        sizers = _SIZERS
        total = _OBJECT_OVERHEAD
        for name in names:
            value = getattr(obj, name)
            total += sizers[type(value)](value)
        return total

    return size_dataclass


def _size_object(obj: Any) -> int:
    if hasattr(obj, "__dict__"):
        return _OBJECT_OVERHEAD + estimate_size(vars(obj))
    return _OBJECT_OVERHEAD


def slot_names(cls: type) -> tuple:
    """Every ``__slots__`` name of ``cls``, base classes' first."""
    return tuple(name for klass in reversed(cls.__mro__)
                 for name in klass.__dict__.get("__slots__", ()))


def slots_wire_size(obj: Any) -> int:
    """Size a ``__slots__`` instance exactly as :func:`_size_object` charged
    its ``__dict__`` before the class had slots. A :class:`WireSized` class
    with slots takes this as its ``wire_size``."""
    names, fixed = _SLOT_PLANS[type(obj)]
    sizers = _SIZERS
    total = fixed
    for name in names:
        value = getattr(obj, name)
        total += sizers[type(value)](value)
    return total


class _SlotPlans(dict):
    """``type -> (slot names, fixed charge)``: the object, the dict and, per
    slot, the name and the item overhead. A miss classifies the class once."""

    def __missing__(self, cls: type) -> tuple:
        names = slot_names(cls)
        plan = self[cls] = (names, _OBJECT_OVERHEAD + _ITEM_OVERHEAD + sum(
            _size_str(name) + _ITEM_OVERHEAD for name in names))
        return plan


_SLOT_PLANS = _SlotPlans()


def _sizer_for(cls: type):
    """Classify ``cls``. The order is the estimator's precedence: an
    ``IntEnum`` is an int, a ``str``-mixin enum a str, a dataclass that is
    :class:`WireSized` answers for itself."""
    if cls is type(None) or issubclass(cls, bool):
        return _size_1
    if issubclass(cls, (int, float)):
        return _size_8
    if issubclass(cls, str):
        return _size_str
    if issubclass(cls, (bytes, bytearray)):
        return _size_bytes
    if issubclass(cls, WireSized):
        return cls.wire_size
    if issubclass(cls, Enum):
        return _size_enum
    if issubclass(cls, dict):
        return _size_dict
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _size_sequence
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_sizer(cls)
    return _size_object


class _SizerTable(dict):
    """``type -> sizer``; a miss classifies the class once and keeps it."""

    def __missing__(self, cls: type):
        sizer = self[cls] = _sizer_for(cls)
        return sizer


_SIZERS = _SizerTable()
