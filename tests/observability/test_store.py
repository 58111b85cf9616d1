"""HistoryStore tests — sqlite spill round-trips, watermarks, schema.

The load-bearing property is *spill equivalence*: spilling a run's
windows periodically (with the in-memory ring evicting old windows
between spills) must produce byte-for-byte the same database as one
spill at the end. Hypothesis drives it with arbitrary window series and
arbitrary spill schedules; the stub ring below stands in for
:class:`TimeSeriesStore` so the generated series is exactly what the
spiller sees.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import HistoryStore, HistoryStoreError
from repro.observability.store import SCHEMA_VERSION
from repro.observability.timeseries import Window


class StubRing:
    """The minimal TimeSeriesStore surface spill_windows() reads."""

    def __init__(self, series: dict):
        self._series = series

    def names(self, prefix: str = ""):
        return sorted(k for k in self._series if k.startswith(prefix))

    def series(self, key: str):
        return self._series[key]


def window(t, kind="counter", **fields):
    return Window(float(t), kind, **fields)


# -- strategies ----------------------------------------------------------------

_value = st.floats(min_value=0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@st.composite
def window_series(draw):
    """A plausible per-key series: strictly increasing window ends, one
    kind throughout, sparse per-kind fields."""
    kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
    ts = sorted(draw(st.sets(st.integers(min_value=1, max_value=200),
                             min_size=1, max_size=12)))
    out = []
    for t in ts:
        if kind == "counter":
            delta = draw(_value)
            out.append(window(t, kind, delta=delta, rate=delta))
        elif kind == "gauge":
            out.append(window(t, kind, value=draw(_value),
                              max=draw(_value)))
        else:
            p50 = draw(_value)
            out.append(window(t, kind, count=draw(st.integers(0, 50)),
                              p50=p50, p95=p50 + draw(_value)))
    return out


_rings = st.dictionaries(
    st.text(alphabet="abc.{}=", min_size=1, max_size=8),
    window_series(), min_size=1, max_size=4)


# -- spill round-trip properties -----------------------------------------------


@settings(max_examples=60)
@given(series=_rings)
def test_spilled_windows_round_trip_exactly(series):
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "test", 1, "heap")
        store.spill_windows("r", StubRing(series))
        assert store.keys("r") == sorted(series)
        for key, windows in series.items():
            assert store.series("r", key) == \
                [w.to_dict() for w in windows]
            rehydrated = store.windows("r", key)
            assert [w.to_dict() for w in rehydrated] == \
                [w.to_dict() for w in windows]


@settings(max_examples=60)
@given(series=_rings, data=st.data())
def test_periodic_spill_equals_one_shot_spill(series, data):
    """Watermarking: spilling growing (and retention-evicted) views of
    the ring repeatedly writes each window exactly once."""
    with HistoryStore(":memory:") as periodic, \
            HistoryStore(":memory:") as oneshot:
        for store in (periodic, oneshot):
            store.begin_run("r", "test", 1, "heap")
        cuts = data.draw(st.lists(st.integers(0, 12), min_size=1,
                                  max_size=4))
        retention = data.draw(st.integers(min_value=3, max_value=12))
        for cut in sorted(cuts) + [None]:
            view = {k: ws[:cut][-retention:] if cut is not None
                    else ws[-retention:]
                    for k, ws in series.items()}
            view = {k: ws for k, ws in view.items() if ws}
            if view:
                periodic.spill_windows("r", StubRing(view))
        # One-shot sees only the final ring contents; the periodic store
        # must agree wherever the one-shot store has data, and may have
        # strictly more history (windows the ring evicted).
        oneshot.spill_windows(
            "r", StubRing({k: ws[-retention:] for k, ws in series.items()}))
        for key in oneshot.keys("r"):
            tail = oneshot.series("r", key)
            since = tail[0]["t"]
            assert periodic.series("r", key, since=since) == tail


@settings(max_examples=40)
@given(series=_rings, since=st.integers(0, 200), until=st.integers(0, 200),
       limit=st.integers(1, 10))
def test_series_filters_are_consistent(series, since, until, limit):
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "test", 1, "heap")
        store.spill_windows("r", StubRing(series))
        for key, windows in series.items():
            expected = [w.to_dict() for w in windows
                        if since <= w.t <= until]
            assert store.series("r", key, since=since,
                                until=until) == expected
            clipped = store.series("r", key, limit=limit)
            assert clipped == [w.to_dict() for w in windows][-limit:]


# -- run registry --------------------------------------------------------------


def test_begin_run_rejects_duplicates_unless_replaced():
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "soak", 7, "heap")
        with pytest.raises(ValueError):
            store.begin_run("r", "soak", 7, "heap")
        store.spill_windows("r", StubRing(
            {"k": [window(1, delta=2.0)]}))
        store.begin_run("r", "soak", 8, "heap", replace=True)
        assert store.run("r")["seed"] == 8
        assert store.keys("r") == []  # old windows went with the old run


def test_finish_run_merges_meta_and_seals():
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "soak", 7, "heap")
        store.finish_run("r", sim_end=21600.0, events=1_000_000,
                         meta={"b": 2})
        entry = store.run("r")
        assert entry["finished"] and entry["events"] == 1_000_000
        assert entry["sim_end"] == 21600.0
        assert entry["meta"] == {"b": 2}


def test_delete_run_drops_all_tables_and_watermarks():
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "t", 1, "heap")
        store.spill_windows("r", StubRing({"k": [window(5, delta=1.0)]}))
        store.spill_profile("r", {
            "attribution": [{"event_type": "Timeout", "target": "p",
                             "count": 3, "wall_s": 0.1, "share": 0.5}],
            "throughput": [{"wall_s": 0.1, "sim_t": 5.0, "events": 3}]})
        store.delete_run("r")
        assert store.runs() == []
        assert store.profile("r") == [] and store.throughput("r") == []
        # A fresh same-name run starts from a clean watermark.
        store.begin_run("r", "t", 1, "heap")
        store.spill_windows("r", StubRing({"k": [window(5, delta=9.0)]}))
        assert store.series("r", "k") == [
            {"t": 5.0, "kind": "counter", "delta": 9.0}]


# -- profile + throughput spill ------------------------------------------------


def test_spill_profile_converges_instead_of_duplicating():
    report_early = {
        "attribution": [{"event_type": "Timeout", "target": "process:a",
                         "count": 10, "wall_s": 0.1, "share": 0.4}],
        "throughput": [{"wall_s": 0.1, "sim_t": 10.0, "events": 4096}]}
    report_final = {
        "attribution": [
            {"event_type": "Timeout", "target": "process:a",
             "count": 25, "wall_s": 0.3, "share": 0.5},
            {"event_type": "Initialize", "target": "process:b",
             "count": 5, "wall_s": 0.1, "share": 0.2}],
        "throughput": [{"wall_s": 0.1, "sim_t": 10.0, "events": 4096},
                       {"wall_s": 0.2, "sim_t": 20.0, "events": 8192}]}
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "t", 1, "heap")
        store.spill_profile("r", report_early)
        store.spill_profile("r", report_final)
        profile = store.profile("r")
        assert [(p["event_type"], p["count"]) for p in profile] == \
            [("Timeout", 25), ("Initialize", 5)]  # hottest first, no dupes
        assert [t["events"] for t in store.throughput("r")] == [4096, 8192]


# -- stats ---------------------------------------------------------------------


def test_stats_aggregates_a_horizon():
    series = {"lat": [window(1, "histogram", count=4, p50=0.01, p95=0.05),
                      window(2, "histogram", count=2, p50=0.02, p95=0.03),
                      window(9, "histogram", count=1, p50=0.01, p95=0.09)]}
    with HistoryStore(":memory:") as store:
        store.begin_run("r", "t", 1, "heap")
        store.spill_windows("r", StubRing(series))
        full = store.stats("r", "lat")
        assert full["windows"] == 3
        assert full["count"] == 7
        assert full["p95"] == 0.09       # worst window in horizon
        early = store.stats("r", "lat", until=2)
        assert early["windows"] == 2 and early["p95"] == 0.05
        assert store.stats("r", "missing") == {"windows": 0}


# -- durability ----------------------------------------------------------------


def test_reopened_store_keeps_spilling_incrementally(tmp_path):
    path = str(tmp_path / "h.sqlite")
    with HistoryStore(path) as store:
        store.begin_run("r", "t", 1, "heap")
        store.spill_windows("r", StubRing({"k": [window(1, delta=1.0)]}))
    with HistoryStore(path) as store:  # fresh process: cold watermarks
        wrote = store.spill_windows("r", StubRing(
            {"k": [window(1, delta=1.0), window(2, delta=3.0)]}))
        assert wrote == 1  # only the new window; t=1 was already spilled
        assert [w["t"] for w in store.series("r", "k")] == [1.0, 2.0]


def test_schema_version_mismatch_refuses_to_open(tmp_path):
    path = str(tmp_path / "h.sqlite")
    HistoryStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(ValueError, match="schema"):
        HistoryStore(path)


def test_unreadable_file_closes_its_connection_and_raises_typed(
        tmp_path, monkeypatch):
    opened = []
    connect = sqlite3.connect

    def recording_connect(path):
        conn = connect(path)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    garbage = tmp_path / "garbage.db"
    garbage.write_text("x\n")
    future = tmp_path / "future.db"
    HistoryStore(future).close()
    conn = sqlite3.connect(future)
    conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    opened.clear()
    for path, match in ((garbage, "not a history database"),
                        (future, "schema")):
        with pytest.raises(HistoryStoreError, match=match):
            HistoryStore(path)
    assert len(opened) == 2
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")
