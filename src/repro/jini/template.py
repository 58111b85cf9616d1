"""Service items and lookup templates.

A :class:`ServiceItem` is what a provider registers: its id, its proxy
(:class:`~repro.net.rpc.RemoteRef`) and attribute entries. A
:class:`ServiceTemplate` is what a requestor looks up with: any combination
of exact id, required remote interface names and entry templates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..net.rpc import RemoteRef
from .entries import Name, attributes_match

__all__ = ["ServiceItem", "ServiceTemplate"]


@dataclass
class ServiceItem:
    """A registered service: identity + proxy + attributes."""

    service_id: str
    service: RemoteRef
    attributes: tuple = ()

    def name(self) -> Optional[str]:
        for attr in self.attributes:
            if isinstance(attr, Name):
                return attr.name
        return None

    def with_attributes(self, attributes) -> "ServiceItem":
        return replace(self, attributes=tuple(attributes))


@dataclass(frozen=True, slots=True)
class ServiceTemplate:
    """Matching rule for lookups.

    * ``service_id`` — exact id, or ``None`` for any;
    * ``types`` — remote interface names the proxy must implement (all);
    * ``attributes`` — entry templates, each must match some item entry.
    """

    service_id: Optional[str] = None
    types: tuple = ()
    attributes: tuple = ()

    def matches(self, item: ServiceItem) -> bool:
        if self.service_id is not None and item.service_id != self.service_id:
            return False
        for type_name in self.types:
            if not item.service.implements(type_name):
                return False
        if self.attributes and not attributes_match(self.attributes, item.attributes):
            return False
        return True

    @staticmethod
    def by_name(name: str, *types: str) -> "ServiceTemplate":
        return ServiceTemplate(types=tuple(types), attributes=(Name(name),))

    @staticmethod
    def by_type(*types: str) -> "ServiceTemplate":
        return ServiceTemplate(types=tuple(types))
