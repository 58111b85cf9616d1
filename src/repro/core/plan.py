"""Composition plans — the declarative state of the logical sensor network.

Rio heals a crashed composite by instantiating a *fresh* provider with the
same name — but a fresh CSP is empty: its children and compute-expression
were in-memory state. A :class:`CompositionPlan` captures that state as
data ("Field-1 contains these sensors with this expression"), so the
façade can re-apply it — on demand or automatically (self-healing). This
completes the §V.B promise that "the semantics of network management in
SenSORCER is reduced to the management of a single CSP": the management
state itself survives the CSP.

Entries are ordered leaves-first so nested composites re-form bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["PlanEntry", "CompositionPlan"]


@dataclass(frozen=True)
class PlanEntry:
    """Desired state of one composite."""

    composite: str
    children: tuple        # child service names, composition order
    expression: Optional[str] = None


@dataclass
class CompositionPlan:
    """Ordered desired state of every composite in the logical network."""

    entries: list = field(default_factory=list)

    def add(self, composite: str, children, expression=None) -> "CompositionPlan":
        if any(e.composite == composite for e in self.entries):
            raise ValueError(f"plan already has an entry for {composite!r}")
        self.entries.append(PlanEntry(composite=composite,
                                      children=tuple(children),
                                      expression=expression))
        return self
