"""Lease-layer restore edges (DESIGN §14).

Two states are easy to lose across a checkpoint and both are exercised
here with the record/replay restore semantics (run A captures at T and
continues; run B rebuilds, verifies its digest against A's at T, then
continues — byte-identical endings required):

* a lease that has **lapsed but not yet been reaped** at T — the
  restored run's sweeper must reap exactly what the original would have;
* a renewal service **mid-backoff after failed renewals** at T — the
  restored run must retry on the original schedule and recover (or lose)
  the same leases.
"""

import numpy as np
import pytest

from repro.jini import (
    Landlord,
    LeaseRenewalService,
    LookupService,
    Name,
    ServiceItem,
    ServiceTemplate,
)
from repro.net import FixedLatency, Host, Network, rpc_endpoint
from repro.sim import Environment
from repro.snapshot.checkpoint import Checkpointer


# ---------------------------------------------------------------------------
# Expired-but-unreaped leases


def _landlord_run(checkpoint_at, on_capture=None):
    """Sweeper every 2s; 'lapser' expires at t=3 so the capture at t=3.5
    sees it lapsed but unreaped (the reap lands at t=4)."""
    env = Environment()
    expired = []
    landlord = Landlord(env, max_duration=60.0, on_expire=expired.append)
    env.register_state("jini.landlord", landlord.checkpoint_state)
    checkpointer = Checkpointer(env, checkpoint_at, on_capture=on_capture)
    env.process(landlord.sweeper(2.0), name="sweeper")

    def client():
        landlord.grant("keeper", 30.0)
        lease = landlord.grant("lapser", 3.0)
        yield env.timeout(5.0)
        landlord.renew(landlord.grant("late", 20.0).lease_id, 25.0)
        assert lease.is_expired(env.now)

    env.process(client(), name="client")
    env.run(until=10.0)
    return checkpointer, expired, landlord.checkpoint_state()


def test_capture_includes_lapsed_but_unreaped_lease():
    checkpointer, expired, _ = _landlord_run([3.5])
    (_, at, state, _) = checkpointer.captures[0]
    assert at == 3.5
    leases = state["jini.landlord"]["leases"]
    lapsed = [lease for lease in leases if lease["expiration"] <= at]
    assert [lease["resource"] for lease in lapsed] == ["'lapser'"]
    assert expired == ["lapser"]  # ...and the sweeper reaped it later


def test_restored_run_reaps_identically():
    original, expired_a, final_a = _landlord_run([3.5])
    (_, _, _, want_digest) = original.captures[0]

    def verify(index, at, state, digest):
        assert digest == want_digest, "replayed lease state diverged at T"

    replay, expired_b, final_b = _landlord_run([3.5], on_capture=verify)
    assert replay.captures[0][3] == want_digest
    assert expired_b == expired_a == ["lapser"]
    assert final_b == final_a
    assert final_a["next_id"] == 4  # grants continued past the checkpoint


# ---------------------------------------------------------------------------
# In-flight renewal backoff


def _renewal_run(checkpoint_at, on_capture=None):
    """Cut the norm<->lus link at t=6 and heal at t=11.5.

    The 16s lease comes due at t=8 (remaining <= half its duration), the
    renewal RPC is swallowed by the cut and times out at t=11, so a
    capture at t=11.05 sees the managed lease mid-backoff (failures > 0,
    next_attempt in the future); the healed continuation must retry on
    schedule and recover the lease identically."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(7),
                  latency=FixedLatency(0.001))
    checkpointer = Checkpointer(env, checkpoint_at, on_capture=on_capture)
    lus = LookupService(Host(net, "lus-host"))
    lus.start()
    norm = LeaseRenewalService(Host(net, "norm-host"))
    driver_host = Host(net, "driver")
    endpoint = rpc_endpoint(driver_host)

    class Svc:
        REMOTE_TYPES = ("SensorDataAccessor",)

    ref = endpoint.export(Svc(), "svc")
    item = ServiceItem(service_id=net.ids.uuid(), service=ref,
                       attributes=(Name("Napper"),))

    def driver():
        reg = yield endpoint.call(lus.ref, "register", item, 16.0)
        set_id = yield endpoint.call(norm.ref, "create_set", 600.0)
        yield endpoint.call(norm.ref, "add_lease", set_id, lus.ref,
                            reg.lease, 16.0, 200.0)
        yield env.timeout(6.0)
        net.cut_link("norm-host", "lus-host")
        yield env.timeout(5.5)
        net.heal_link("norm-host", "lus-host")

    env.process(driver(), name="driver")
    env.run(until=25.0)
    alive = len(lus.lookup(ServiceTemplate.by_name("Napper"), 10))
    return checkpointer, alive, norm.checkpoint_state()


def test_capture_includes_inflight_backoff():
    checkpointer, alive, _ = _renewal_run([11.05])
    (_, at, state, _) = checkpointer.captures[0]
    norm_key = "jini.norm.norm-host"
    managed = [entry for entries in state[norm_key]["sets"].values()
               for entry in entries]
    assert len(managed) == 1
    assert managed[0]["failures"] >= 1          # a renewal already failed
    assert managed[0]["next_attempt"] > at      # and the retry is pending
    assert managed[0]["alive"] is True
    assert alive == 1  # the healed continuation recovered the lease


def test_restored_renewal_sweeps_identically():
    original, alive_a, final_a = _renewal_run([11.05])
    (_, _, _, want_digest) = original.captures[0]
    failures = []

    def verify(index, at, state, digest):
        if digest != want_digest:
            failures.append(at)

    replay, alive_b, final_b = _renewal_run([11.05], on_capture=verify)
    assert not failures, "replayed renewal state diverged at T"
    assert alive_b == alive_a == 1
    assert final_b == final_a


def test_divergent_replay_is_detected():
    original, _, _ = _landlord_run([3.5])
    (_, _, _, want_digest) = original.captures[0]
    # Capture one tick later: the digest must differ (the sweeper reaped
    # in between), proving the verification is not vacuous.
    later, _, _ = _landlord_run([4.5])
    assert later.captures[0][3] != want_digest


@pytest.mark.parametrize("at", [3.5, 4.5])
def test_checkpointer_records_schedule(at):
    checkpointer, _, _ = _landlord_run([at])
    assert checkpointer.schedule == [at]
    assert [capture[1] for capture in checkpointer.captures] == [at]
