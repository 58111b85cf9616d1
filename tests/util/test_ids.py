"""IdSource determinism and uniqueness."""

import numpy as np

from repro.util.ids import IdSource


def test_uuid_shape():
    ids = IdSource(np.random.default_rng(1))
    uid = ids.uuid()
    parts = uid.split("-")
    assert [len(p) for p in parts] == [8, 4, 4, 4, 12]
    int(uid.replace("-", ""), 16)  # hex throughout


def test_uuids_unique():
    ids = IdSource(np.random.default_rng(1))
    batch = {ids.uuid() for _ in range(500)}
    assert len(batch) == 500


def test_same_seed_same_sequence():
    a = IdSource(np.random.default_rng(7))
    b = IdSource(np.random.default_rng(7))
    assert [a.uuid() for _ in range(5)] == [b.uuid() for _ in range(5)]


def test_different_seed_differs():
    a = IdSource(np.random.default_rng(1))
    b = IdSource(np.random.default_rng(2))
    assert a.uuid() != b.uuid()


def test_sequence_monotone():
    ids = IdSource(np.random.default_rng(1))
    values = [ids.sequence() for _ in range(10)]
    assert values == sorted(values)
    assert len(set(values)) == 10


def test_uuid_and_sequence_share_counter_without_collisions():
    ids = IdSource(np.random.default_rng(1))
    ids.uuid()
    n1 = ids.sequence()
    ids.uuid()
    n2 = ids.sequence()
    assert n2 > n1
