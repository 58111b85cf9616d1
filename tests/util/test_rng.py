"""Named RNG substreams: independence, reproducibility, and the
regression the scheme exists for — adding a consumer cannot shift
another stream's draws."""

import numpy as np

from repro.util.rng import stream_hash, substream


def test_same_path_same_sequence():
    a = substream(2009, "chaos", "plan")
    # A new consumer appears and draws heavily from the same seed.
    substream(2009, "load", "gold").random(10_000)
    b = substream(2009, "chaos", "plan")
    assert np.array_equal(a.random(32), b.random(32))


def test_distinct_paths_distinct_sequences():
    draws = {name: substream(2009, name).random(8).tobytes()
             for name in ("chaos", "load", "latency")}
    assert len(set(draws.values())) == len(draws)
    # Path order matters: ("a","b") != ("b","a").
    assert not np.array_equal(substream(1, "a", "b").random(4),
                              substream(1, "b", "a").random(4))


def test_substream_differs_from_plain_default_rng():
    assert not np.array_equal(substream(7).random(4),
                              np.random.default_rng(7).random(4))


def test_stream_hash_is_stable_and_order_sensitive():
    assert stream_hash("chaos", "plan") == stream_hash("chaos", "plan")
    assert stream_hash("chaos", "plan") != stream_hash("plan", "chaos")
    assert 0 <= stream_hash("x") <= 0xFFFFFFFF

