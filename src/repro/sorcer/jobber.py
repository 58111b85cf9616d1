"""Jobber — the PUSH rendezvous peer coordinating job execution.

Receives a :class:`~repro.sorcer.exertion.Job` and runs its components as
every :class:`~repro.sorcer.rendezvous.Rendezvous` does, dispatching each
by exerting it back onto the network.
"""

from __future__ import annotations

from ..net.host import Host
from .exertion import Exertion
from .exerter import Exerter
from .rendezvous import Rendezvous

__all__ = ["Jobber"]


class Jobber(Rendezvous):
    """Rendezvous peer for direct (PUSH) federations."""

    SERVICE_TYPES = ("Jobber",)
    SEQUENTIAL_PROCESS = "jobber-seq"
    PARALLEL_PROCESS = "jobber-par"

    def __init__(self, host: Host, name: str = "Jobber", **kwargs):
        super().__init__(host, name, **kwargs)
        self.exerter = Exerter(host)

    def _dispatch(self, component: Exertion, txn_id):
        return self.exerter.exert(component, txn_id)
