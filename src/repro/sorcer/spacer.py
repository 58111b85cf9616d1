"""Spacer and space workers — the PULL half of exertion dispatch.

The :class:`Spacer` is the rendezvous peer for jobs with
``Access.PULL``: it runs them as every
:class:`~repro.sorcer.rendezvous.Rendezvous` does, dispatching each
component task by dropping it into the exertion space and waiting for its
result. :class:`SpaceWorker` attaches to a concrete provider and
pulls matching envelopes: take under a transaction, execute locally, write
the result back, commit. A worker crash before commit lets the transaction
lapse, the space restores the envelope, and another worker picks it up —
no lost exertions.
"""

from __future__ import annotations

from typing import Optional

from ..jini.template import ServiceTemplate
from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .accessor import ServiceAccessor
from .exertion import Exertion, Task
from .provider import ServiceProvider
from .rendezvous import Rendezvous
from .space import SpaceTemplate

__all__ = ["Spacer", "SpaceWorker"]

SPACE_TYPE = "ExertionSpace"


class Spacer(Rendezvous):
    """Rendezvous peer for space-based (PULL) federations."""

    SERVICE_TYPES = ("Spacer",)
    PARALLEL_PROCESS = "spacer"

    def __init__(self, host: Host, name: str = "Spacer",
                 result_timeout: float = 30.0, **kwargs):
        super().__init__(host, name, **kwargs)
        self.accessor = ServiceAccessor(host)
        self.result_timeout = result_timeout

    def _route(self, txn_id: Optional[int]):
        """Every dispatch of one job goes through the same space."""
        item = yield from self.accessor.find_one(
            ServiceTemplate.by_type(SPACE_TYPE), wait=5.0)
        if item is None:
            raise LookupError("no exertion space on the network")
        return item.service

    def _dispatch(self, component: Exertion, space_ref: RemoteRef):
        if not isinstance(component, Task):
            component = component.copy()
            component.report_exception(
                "space-based dispatch supports task components only")
            return component
        envelope_id = yield self._endpoint.call(
            space_ref, "write", component, kind="space-write")
        result = yield self._endpoint.call(
            space_ref, "take_result", envelope_id, self.result_timeout,
            kind="space-result", timeout=self.result_timeout + 5.0)
        if result is None:
            component = component.copy()
            component.report_exception(
                f"no worker produced a result within {self.result_timeout}s")
            return component
        return result


class SpaceWorker:
    """Pulls envelopes matching a provider's capabilities and executes them.

    With a ``txn_manager_ref`` each take runs in a ``TXN_DURATION``
    transaction from that manager, so a crash restores the envelope. A take
    waits up to ``POLL_TIMEOUT`` for a matching envelope.
    """

    POLL_TIMEOUT = 0.5
    TXN_DURATION = 5.0

    def __init__(self, provider: ServiceProvider, space_ref: RemoteRef,
                 txn_manager_ref: Optional[RemoteRef] = None):
        self.provider = provider
        self.host = provider.host
        self.env = provider.env
        self.space_ref = space_ref
        self.txn_manager_ref = txn_manager_ref
        self._endpoint = rpc_endpoint(self.host)
        self._active = False
        self.executed = 0

    def templates(self) -> list[SpaceTemplate]:
        return [SpaceTemplate(service_type=t)
                for t in self.provider.service_types if t != "Servicer"]

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self.env.process(self._loop(), name=f"space-worker:{self.provider.name}")

    def stop(self) -> None:
        self._active = False

    def _loop(self):
        templates = self.templates()
        while self._active:
            if not self.host.up:
                yield self.env.timeout(1.0)
                continue
            worked = yield from self._work_one(templates)
            if not worked:
                yield self.env.timeout(0.1)

    def _work_one(self, template):
        txn_id = None
        try:
            if self.txn_manager_ref is not None:
                created = yield self._endpoint.call(
                    self.txn_manager_ref, "create", self.TXN_DURATION,
                    kind="txn-create")
                txn_id = created.txn_id
                yield self._endpoint.call(
                    self.txn_manager_ref, "join", txn_id, self.space_ref,
                    kind="txn-join")
            envelope = yield self._endpoint.call(
                self.space_ref, "take", template, txn_id, self.POLL_TIMEOUT,
                kind="space-take", timeout=self.POLL_TIMEOUT + 5.0)
            if envelope is None:
                if txn_id is not None:
                    yield self._endpoint.call(self.txn_manager_ref, "abort",
                                              txn_id, kind="txn-abort")
                return False
            # Execute locally: the worker lives on the provider's host.
            result = yield self.env.process(
                self.provider.service(envelope.task, txn_id))
            yield self._endpoint.call(
                self.space_ref, "write_result", envelope.envelope_id, result,
                kind="space-result-write")
            if txn_id is not None:
                yield self._endpoint.call(self.txn_manager_ref, "commit",
                                          txn_id, kind="txn-commit", timeout=10.0)
            self.executed += 1
            return True
        except NetworkError:
            # Space or txn manager unreachable; retry after a beat.
            yield self.env.timeout(1.0)
            return False
