"""Injectors — executing a ChaosPlan against a live deployment.

The :class:`InjectorEngine` turns plan events into kernel processes that
flip real system state at the scheduled times: host crash/recover, link
cuts (symmetric and directed), ChaosLink install/remove, LUS lease
storms, transaction aborts. Overlapping windows compose through
refcounts — a host crashed by two overlapping events recovers only when
the *last* window closes, a link cut twice heals on the second heal —
so shrinking (which drops arbitrary subsets of events) never leaves the
system in a half-restored state.
"""

from __future__ import annotations

from collections import Counter

from ..jini.txn import CannotCommitError, UnknownTransactionError
from .link import ChaosLink

__all__ = ["InjectorEngine"]


class InjectorEngine:
    """Executes plan events against a network (and optional LUS/txn mgr)."""

    def __init__(self, net, lus=None, txn_manager=None, seed: int = 0,
                 load_engine=None):
        self.net = net
        self.env = net.env
        self.lus = lus
        self.txn_manager = txn_manager
        self.seed = seed
        #: OpenLoopEngine for tenant-burst faults (None = kind is a no-op).
        self.load_engine = load_engine
        self._host_down: Counter = Counter()
        self._cuts: Counter = Counter()
        self._cuts_directed: Counter = Counter()
        #: ChaosLinks installed over the run, kept for verdict accounting.
        self.links: list = []
        #: Fault applications actually performed, per kind.
        self.applied: Counter = Counter()

    def apply(self, plan) -> None:
        """Schedule every event of ``plan`` (call before env.run)."""
        for index, event in enumerate(plan.events):
            self.env.process(self._run_event(event, index),
                             name=f"chaos:{event.kind}:{index}")

    # -- event execution ------------------------------------------------------

    def _run_event(self, event, index: int):
        delay = event.start - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        kind = event.kind
        self.applied[kind] += 1
        if kind == "crash":
            self._host_fail(event.target)
            yield self.env.timeout(event.duration)
            self._host_restore(event.target)
        elif kind == "partition":
            a, b = event.target.split("|")
            self._cut(a, b)
            yield self.env.timeout(event.duration)
            self._heal(a, b)
        elif kind == "partition_asym":
            src, dst = event.target.split(">")
            self._cut_directed(src, dst)
            yield self.env.timeout(event.duration)
            self._heal_directed(src, dst)
        elif kind in ("link_chaos", "slowdown"):
            link = self._make_link(event, index)
            self.net.add_link_filter(link)
            self.links.append(link)
            yield self.env.timeout(event.duration)
            self.net.remove_link_filter(link)
        elif kind == "lease_churn":
            yield from self._churn(event)
        elif kind == "txn_abort":
            yield from self._abort_active_txns()
        elif kind == "tenant-burst":
            if self.load_engine is not None:
                # The burst self-expires at event.end (burst_factor checks
                # the clock), so overlapping windows need no refcount: the
                # widest window wins, which is what overload should see.
                self.load_engine.burst(event.target,
                                       float(event.params.get("factor", 10.0)),
                                       until=event.end)
            yield self.env.timeout(event.duration)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    def _make_link(self, event, index: int) -> ChaosLink:
        salt = f"{self.seed}:{index}:{event.kind}"
        params = event.params
        if event.kind == "slowdown":
            return ChaosLink(event.target, None,
                             delay=params.get("delay", 0.2), salt=salt)
        a, b = event.target.split("|")
        return ChaosLink(a, b,
                         drop_rate=params.get("drop_rate", 0.0),
                         dup_rate=params.get("dup_rate", 0.0),
                         delay=params.get("delay", 0.0),
                         jitter=params.get("jitter", 0.0), salt=salt)

    def _churn(self, event):
        if self.lus is None:
            return
        interval = max(0.5, float(event.params.get("interval", 2.0)))
        end = event.end
        while self.env.now < end:
            self.lus.expire_registrations(
                None if event.target == "*" else event.target)
            yield self.env.timeout(interval)

    def _abort_active_txns(self):
        manager = self.txn_manager
        if manager is None:
            return
        for txn_id in manager.states():
            # Re-read per txn: an earlier abort yielded, states moved on.
            if manager.get_state(txn_id).value != "active":
                continue
            try:
                yield from manager.abort(txn_id)
            except (CannotCommitError, UnknownTransactionError):
                pass  # racing a commit that just finished — fine

    # -- refcounted primitives -------------------------------------------------

    def _host_fail(self, name: str) -> None:
        self._host_down[name] += 1
        if self._host_down[name] == 1:
            self.net.hosts[name].fail()

    def _host_restore(self, name: str) -> None:
        self._host_down[name] -= 1
        if self._host_down[name] == 0:
            self.net.hosts[name].recover()

    def _cut(self, a: str, b: str) -> None:
        key = frozenset((a, b))
        self._cuts[key] += 1
        if self._cuts[key] == 1:
            self.net.cut_link(a, b)

    def _heal(self, a: str, b: str) -> None:
        key = frozenset((a, b))
        self._cuts[key] -= 1
        if self._cuts[key] == 0:
            self.net.heal_link(a, b)

    def _cut_directed(self, src: str, dst: str) -> None:
        self._cuts_directed[(src, dst)] += 1
        if self._cuts_directed[(src, dst)] == 1:
            self.net.cut_link_directed(src, dst)

    def _heal_directed(self, src: str, dst: str) -> None:
        self._cuts_directed[(src, dst)] -= 1
        if self._cuts_directed[(src, dst)] == 0:
            self.net.heal_link_directed(src, dst)

    # -- accounting -----------------------------------------------------------

    def link_stats(self) -> dict:
        return {
            "dropped": sum(link.dropped for link in self.links),
            "duplicated": sum(link.duplicated for link in self.links),
            "delayed": sum(link.delayed for link in self.links),
        }
