"""Transaction manager: 2PC semantics."""

import pytest

from repro.net import Host, RemoteError, rpc_endpoint
from repro.jini import TransactionManager, TxnState, Vote
from repro.jini.txn import CannotCommitError, UnknownTransactionError


class Participant:
    """A well-behaved 2PC participant recording its lifecycle."""

    REMOTE_TYPES = ("TransactionParticipant",)

    def __init__(self, vote=Vote.PREPARED):
        self.vote = vote
        self.log = []

    def prepare(self, txn_id):
        self.log.append(("prepare", txn_id))
        return self.vote

    def commit(self, txn_id):
        self.log.append(("commit", txn_id))

    def abort(self, txn_id):
        self.log.append(("abort", txn_id))


def setup_tm(net):
    host = Host(net, "txn-host")
    tm = TransactionManager(host)
    client_host = Host(net, "client")
    client = rpc_endpoint(client_host)
    return host, tm, client_host, client


def export_participant(net, name, vote=Vote.PREPARED):
    host = Host(net, name)
    ep = rpc_endpoint(host)
    p = Participant(vote)
    ref = ep.export(p, f"part:{name}")
    return host, p, ref


def test_create_join_commit(env, net):
    th, tm, ch, client = setup_tm(net)
    ph, participant, pref = export_participant(net, "p1")

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, pref)
        state = yield client.call(tm.ref, "commit", created.txn_id)
        return created.txn_id, state

    p = env.process(proc())
    txn_id, state = env.run(until=p)
    assert state == TxnState.COMMITTED
    assert participant.log == [("prepare", txn_id), ("commit", txn_id)]


def test_commit_with_abort_vote_aborts_all(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1", Vote.PREPARED)
    h2, p2, r2 = export_participant(net, "p2", Vote.ABORTED)

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, r1)
        yield client.call(tm.ref, "join", created.txn_id, r2)
        try:
            yield client.call(tm.ref, "commit", created.txn_id)
        except RemoteError as exc:
            return created.txn_id, type(exc.cause).__name__

    p = env.process(proc())
    txn_id, err = env.run(until=p)
    assert err == "CannotCommitError"
    # No one commits; everyone gets abort.
    assert ("commit", txn_id) not in p1.log
    assert ("abort", txn_id) in p1.log
    assert ("abort", txn_id) in p2.log


def test_notchanged_vote_skips_phase2(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1", Vote.NOTCHANGED)
    h2, p2, r2 = export_participant(net, "p2", Vote.PREPARED)

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, r1)
        yield client.call(tm.ref, "join", created.txn_id, r2)
        yield client.call(tm.ref, "commit", created.txn_id)
        return created.txn_id

    p = env.process(proc())
    txn_id = env.run(until=p)
    assert ("commit", txn_id) not in p1.log
    assert ("commit", txn_id) in p2.log


def test_dead_participant_aborts_commit(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1")
    h1.fail()

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, r1)
        try:
            yield client.call(tm.ref, "commit", created.txn_id, timeout=30.0)
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(proc())
    assert env.run(until=p) == "CannotCommitError"


def test_explicit_abort(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1")

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "join", created.txn_id, r1)
        state = yield client.call(tm.ref, "abort", created.txn_id)
        txn_state = yield client.call(tm.ref, "get_state", created.txn_id)
        return created.txn_id, state, txn_state

    p = env.process(proc())
    txn_id, state, txn_state = env.run(until=p)
    assert state == TxnState.ABORTED
    assert txn_state == TxnState.ABORTED
    assert ("abort", txn_id) in p1.log


def test_commit_twice_rejected(env, net):
    th, tm, ch, client = setup_tm(net)

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "commit", created.txn_id)
        try:
            yield client.call(tm.ref, "commit", created.txn_id)
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(proc())
    assert env.run(until=p) == "CannotCommitError"


def test_join_after_commit_rejected(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1")

    def proc():
        created = yield client.call(tm.ref, "create", 60.0)
        yield client.call(tm.ref, "commit", created.txn_id)
        try:
            yield client.call(tm.ref, "join", created.txn_id, r1)
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(proc())
    assert env.run(until=p) == "CannotCommitError"


def test_unknown_txn(env, net):
    th, tm, ch, client = setup_tm(net)

    def proc():
        try:
            yield client.call(tm.ref, "get_state", 424242)
        except RemoteError as exc:
            return type(exc.cause).__name__

    p = env.process(proc())
    assert env.run(until=p) == "UnknownTransactionError"


def test_lease_expiry_aborts_active_txn(env, net):
    th, tm, ch, client = setup_tm(net)
    h1, p1, r1 = export_participant(net, "p1")

    def proc():
        created = yield client.call(tm.ref, "create", 2.0)
        yield client.call(tm.ref, "join", created.txn_id, r1)
        yield env.timeout(10.0)  # never committed, lease lapses
        state = yield client.call(tm.ref, "get_state", created.txn_id)
        return created.txn_id, state

    p = env.process(proc())
    txn_id, state = env.run(until=p)
    assert state == TxnState.ABORTED
    assert ("abort", txn_id) in p1.log
