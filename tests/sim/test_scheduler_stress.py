"""Scheduler soak: a million random occurrences against the invariants.

Full tier pushes ~1M occurrences through the heap scheduler with a plain
sorted list of ``(time, priority, tie, seq)`` keys as the oracle checking
every pop; ``REPRO_BENCH_SMOKE=1`` (the CI smoke tier) drops to 50k.
Invariants under load:

* monotone time — pops never go backwards;
* FIFO within ties — same ``(time, priority, tie)`` keys drain in
  scheduling order;
* conservation — nothing is lost, duplicated, or resurrected after a
  cancel.
"""

import os
import random
from bisect import bisect_left, insort

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import Environment
from repro.sim.scheduler import HeapScheduler

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SOAK_EVENTS = 50_000 if SMOKE else 1_000_000
ENV_EVENTS = 20_000 if SMOKE else 200_000


@pytest.mark.slow
def test_soak_against_sorted_oracle():
    """Random push/pop/cancel storm; a sorted key list checks each pop."""
    rng = np.random.default_rng(0xC0FFEE)
    heap = HeapScheduler()
    # The oracle: live keys kept in sorted order, so its head *is* the
    # contract's next pop. Cancel victims are drawn from `candidates`
    # (may hold stale seqs already popped — checked against `alive`
    # before use, compacted when mostly stale).
    oracle: list[tuple] = []
    alive: dict[int, tuple] = {}
    candidates: list[int] = []
    seq = 0
    now = 0.0
    pops = cancels = 0
    # Weighted op mix: pushes slightly outnumber pops so the queue grows,
    # then the drain at the end empties it.
    op_draw = rng.random(SOAK_EVENTS)
    time_draw = rng.random(SOAK_EVENTS)

    def pop_checked():
        nonlocal now
        time, priority, tie, got_seq, event = heap.pop()
        assert (time, priority, tie, got_seq) == oracle.pop(0)
        assert event == got_seq
        assert time >= now, "time went backwards"
        now = time
        assert got_seq in alive, "popped a cancelled or duplicate seq"
        del alive[got_seq]

    for i in range(SOAK_EVENTS):
        op = op_draw[i]
        if op < 0.52 or not alive:
            # Push at or after *now* (the kernel's contract) on a coarse
            # lattice so same-instant ties are common.
            t = now + round(float(time_draw[i]) * 50.0, 1)
            key = (t, i % 3, (0.0, 0.25, 0.5)[i % 3], seq)
            heap.push(*key, seq)
            insort(oracle, key)
            alive[seq] = key
            candidates.append(seq)
            seq += 1
        elif op < 0.92:
            assert heap.peek_time() == oracle[0][0]
            pop_checked()
            pops += 1
        else:
            victim = candidates.pop(int(op_draw[i] * 7919) % len(candidates))
            if victim not in alive:
                continue  # already popped; skip this cancel op
            del oracle[bisect_left(oracle, alive.pop(victim))]
            heap.cancel(victim)
            cancels += 1
        if len(candidates) > 2 * len(alive) + 64:
            candidates = [s for s in candidates if s in alive]
    assert heap.size == len(oracle) == len(alive)
    drained = 0
    while heap.size:
        pop_checked()
        drained += 1
    # Conservation: every scheduled occurrence either popped or cancelled.
    assert pops + drained + cancels == seq
    assert not alive and not oracle
    assert heap.peek_time() == float("inf")
    with pytest.raises(IndexError):
        heap.pop()


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2),
                          st.sampled_from((0.0, 0.25, 0.5))), max_size=40),
       st.sets(st.integers(0, 39)))
def test_entries_is_non_mutating_under_cancels(program, cancelled):
    """``entries()`` lists the live set in pop order and moves nothing —
    no counter, no tombstone — so snapshot capture cannot perturb a run."""
    heap = HeapScheduler()
    for seq, (time, priority, tie) in enumerate(program):
        heap.push(float(time), priority, tie, seq, f"ev{seq}")
    cancelled = {seq for seq in cancelled if seq < len(program)}
    for seq in cancelled:
        heap.cancel(seq)
    before = heap.stats()
    listed = heap.entries()
    assert heap.entries() == listed
    assert heap.stats() == before
    assert [entry[:4] for entry in listed] == sorted(
        (float(time), priority, tie, seq)
        for seq, (time, priority, tie) in enumerate(program)
        if seq not in cancelled)
    assert [heap.pop() for _ in range(heap.size)] == listed


class _LowFloor(HeapScheduler):
    """Rebuilds after a handful of tombstones, so short programs cross the
    floor many times."""

    __slots__ = ()
    COMPACT_FLOOR = 3


@given(st.lists(st.tuples(st.sampled_from(("push", "push", "cancel", "pop")),
                          st.integers(0, 4), st.integers(0, 2),
                          st.integers(0, 999)), max_size=150),
       st.none() | st.integers(0, 2**32 - 1))
def test_compaction_changes_nothing_a_caller_can_see(program, tie_seed):
    """Push/cancel/pop programs against a sorted list of live keys, with
    ties all 0.0 or drawn as the shuffle harness draws them: pop order,
    ``size``, ``entries()`` and ``stats()`` agree after every operation,
    across the rebuilds, and a cancel never leaves more tombstones than
    the floor or the live entries allow."""
    heap = _LowFloor()
    ties = None if tie_seed is None else random.Random(tie_seed)
    oracle: list[tuple] = []
    live: dict[int, tuple] = {}
    seq = pops = cancels = 0
    now = 0.0
    for op, delay, priority, pick in program:
        if op == "push" or not live:
            key = (now + delay, priority,
                   0.0 if ties is None else ties.random(), seq)
            heap.push(*key, f"ev{seq}")
            insort(oracle, key)
            live[seq] = key
            seq += 1
        elif op == "cancel":
            victim = sorted(live)[pick % len(live)]
            del oracle[bisect_left(oracle, live.pop(victim))]
            heap.cancel(victim)
            cancels += 1
            tombstones = len(heap._heap) - heap.size
            assert tombstones <= max(_LowFloor.COMPACT_FLOOR, heap.size)
        else:
            entry = heap.pop()
            assert entry[:4] == oracle.pop(0)
            assert entry[4] == f"ev{entry[3]}"
            del live[entry[3]]
            now = entry[0]
            pops += 1
        assert heap.size == len(oracle)
        assert [entry[:4] for entry in heap.entries()] == oracle
        assert heap.stats() == {"kind": "heap", "pending": len(oracle),
                                "pushes": seq, "pops": pops,
                                "cancels": cancels}
    while oracle:
        assert heap.pop()[:4] == oracle.pop(0)
    assert heap.peek_time() == float("inf")


def test_cancelled_watchdogs_do_not_pile_up():
    """An answered call's watchdog is cancelled long before it would fire:
    the heap holds about as many entries as are live, not every timer
    withdrawn since."""
    heap = HeapScheduler()
    for seq in range(5000):
        heap.push(30.0 + seq, 1, 0.0, seq, None)
        if seq >= 40:
            heap.cancel(seq - 40)
    assert heap.size == 40
    assert len(heap._heap) <= 2 * HeapScheduler.COMPACT_FLOOR
    assert [entry[3] for entry in heap.entries()] == list(range(4960, 5000))


@pytest.mark.slow
def test_environment_soak_invariants():
    """Whole-kernel soak: hundreds of processes rescheduling themselves on
    a tie-heavy lattice; the clock never regresses, every timer fires
    exactly as often as its schedule allows, and same-instant direct
    timeouts fire in scheduling order."""
    env = Environment()
    rng = np.random.default_rng(2009)
    n_procs = 200
    per_proc = max(ENV_EVENTS // n_procs, 1)
    fired: list[tuple] = []
    observed_now = [0.0]

    def ticker(pid, delays):
        for delay in delays:
            yield env.timeout(delay)
            assert env.now >= observed_now[0], "clock went backwards"
            observed_now[0] = env.now
            fired.append((env.now, pid))

    for pid in range(n_procs):
        delays = (rng.integers(0, 40, size=per_proc) * 0.25).tolist()
        env.process(ticker(pid, delays))

    # Direct same-instant burst: all scheduled up front from one event
    # context, so FIFO-within-tie is exactly creation order.
    burst_fired: list[int] = []
    for index in range(512):
        env.timeout(7.25).callbacks.append(
            lambda ev, index=index: burst_fired.append(index))

    env.run()
    assert len(fired) == n_procs * per_proc, "lost or duplicated events"
    assert burst_fired == list(range(512))
    times = [t for t, _ in fired]
    assert times == sorted(times)


def test_smoke_tier_is_documented():
    """The env knob the CI smoke tier uses must keep cutting the soak."""
    assert SOAK_EVENTS >= 50_000
    assert ENV_EVENTS >= 20_000
