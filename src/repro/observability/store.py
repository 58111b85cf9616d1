"""Persistent telemetry history — sqlite spill for windows and profiles.

A :class:`~repro.observability.timeseries.TimeSeriesStore` is a bounded
in-memory ring: telemetry from a million-event soak run dies with the
process, and the rings themselves only keep the last ``retention``
windows. :class:`HistoryStore` is the durable side — the dsaf manager
node's "Grafana-like" history view (ROADMAP item 5): sealed windows and
flight-recorder profiles spill to one append-only sqlite file, and
``repro history`` queries past runs long after the simulation exited.

Schema (``user_version`` = 1, byte-stable — columns are only ever added
behind a version bump):

* ``runs``      — one row per recorded run: id, scenario, seed, scheduler
  kind, final sim time / event count, finished flag, free-form JSON meta.
  No wall-clock timestamps by default: two identical runs write identical
  rows, which keeps ``repro history --json`` golden-testable.
* ``windows``   — the spilled rollups, one row per
  :class:`~repro.observability.timeseries.Window`: (run, metric key,
  window end t, kind, value/delta/rate/count/p50/p95/max).
* ``profile``   — the flight recorder's attribution table (event type,
  target, count, wall seconds, share) per run.
* ``throughput`` — the recorder's rolling events/sec samples per run.

Spilling is **incremental and watermarked**: :meth:`spill_windows` writes
only windows newer than the per-(run, key) high-water mark, so calling it
every N simulated seconds or once at the end produces the *same* final
database (provided the spill period does not exceed the ring's retention
horizon). Profile spills replace the run's previous profile rows, so
repeated spills converge to the final report rather than duplicating it.

Reads are ordering-stable by construction — every query ends in
``ORDER BY`` over (key, t, rowid) — and values round-trip exactly
(sqlite REAL is the same IEEE-754 double Python floats are).

This module never touches simulation state; it is wall-side plumbing fed
by sim-side data, and it reads no wall clock at all (run identity and
timestamps, when wanted, come from the caller).
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional

from .timeseries import TimeSeriesStore, Window

__all__ = ["HistoryStore", "HistoryStoreError", "SCHEMA_VERSION"]

SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id    TEXT PRIMARY KEY,
    scenario  TEXT NOT NULL,
    seed      INTEGER NOT NULL,
    scheduler TEXT NOT NULL,
    sim_end   REAL,
    events    INTEGER,
    finished  INTEGER NOT NULL DEFAULT 0,
    meta      TEXT NOT NULL DEFAULT '{}',
    restored_from TEXT
);
CREATE TABLE IF NOT EXISTS windows (
    run_id TEXT NOT NULL,
    key    TEXT NOT NULL,
    t      REAL NOT NULL,
    kind   TEXT NOT NULL,
    value  REAL,
    delta  REAL,
    rate   REAL,
    count  INTEGER,
    p50    REAL,
    p95    REAL,
    max    REAL
);
CREATE INDEX IF NOT EXISTS windows_run_key_t
    ON windows (run_id, key, t);
CREATE TABLE IF NOT EXISTS profile (
    run_id     TEXT NOT NULL,
    event_type TEXT NOT NULL,
    target     TEXT NOT NULL,
    count      INTEGER NOT NULL,
    wall_s     REAL NOT NULL,
    share      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS profile_run ON profile (run_id);
CREATE TABLE IF NOT EXISTS throughput (
    run_id TEXT NOT NULL,
    wall_s REAL NOT NULL,
    sim_t  REAL NOT NULL,
    events INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS throughput_run ON throughput (run_id);
"""

_WINDOW_FIELDS = ("value", "delta", "rate", "count", "p50", "p95", "max")


class HistoryStoreError(ValueError):
    """The file at ``path`` is not a history database this build reads:
    not sqlite at all, or a schema version it does not know."""


class HistoryStore:
    """Append-only sqlite history of runs, windows and profiles.

    ``path`` may be a filesystem path or ``":memory:"`` (tests). The
    store is usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        try:
            self._open_schema()
        except BaseException:
            # A file this build cannot read keeps no connection open.
            self._conn.close()
            self._conn = None
            raise
        #: (run_id, key) -> newest spilled window t; lazily seeded from the
        #: database so a reopened store keeps spilling incrementally.
        self._watermarks: dict[tuple, float] = {}

    def _open_schema(self) -> None:
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.DatabaseError as exc:
            raise HistoryStoreError(
                f"{self.path}: not a history database ({exc})") from exc
        if version == 0:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            self._conn.commit()
        elif version == 1:
            # v1 -> v2: runs grew the restored_from marker (NULL for every
            # pre-existing row — no v1 run was a snapshot restore).
            self._conn.execute(
                "ALTER TABLE runs ADD COLUMN restored_from TEXT")
            self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            self._conn.commit()
        elif version != SCHEMA_VERSION:
            raise HistoryStoreError(
                f"{self.path}: history schema v{version}, "
                f"this build reads v{SCHEMA_VERSION}")

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    # -- writing ---------------------------------------------------------------

    def begin_run(self, run_id: str, scenario: str, seed: int,
                  scheduler: str, replace: bool = False,
                  restored_from: Optional[str] = None) -> None:
        """Register a run. ``run_id`` must be new unless ``replace`` is
        set, in which case the previous run's rows are dropped first —
        the one deliberate exception to append-only, for re-recording a
        scenario under the same name.

        ``restored_from`` marks a run resumed from a snapshot file: the
        snapshot's body digest (``repro restore --spill`` records it), so
        history queries can tell resumed runs from uninterrupted ones."""
        existing = self._conn.execute(
            "SELECT 1 FROM runs WHERE run_id=?", (run_id,)).fetchone()
        if existing:
            if not replace:
                raise ValueError(f"run {run_id!r} already recorded "
                                 "(pass replace=True to overwrite)")
            self.delete_run(run_id)
        self._conn.execute(
            "INSERT INTO runs (run_id, scenario, seed, scheduler, meta, "
            "restored_from) VALUES (?,?,?,?,?,?)",
            (run_id, scenario, int(seed), scheduler,
             "{}", restored_from))
        self._conn.commit()

    def spill_windows(self, run_id: str, store: TimeSeriesStore) -> int:
        """Append every not-yet-spilled window; returns the row count.

        Watermarked per (run, key): only windows strictly newer than the
        last spilled ``t`` are written, so periodic and one-shot spilling
        produce the same database.
        """
        rows = []
        for key in store.names():
            mark = self._watermark(run_id, key)
            for window in store.series(key):
                if mark is not None and window.t <= mark:
                    continue
                rows.append((run_id, key, window.t, window.kind,
                             window.value, window.delta, window.rate,
                             window.count, window.p50, window.p95,
                             window.max))
            if rows and rows[-1][1] == key:
                self._watermarks[(run_id, key)] = rows[-1][2]
        if rows:
            self._conn.executemany(
                "INSERT INTO windows VALUES (?,?,?,?,?,?,?,?,?,?,?)", rows)
            self._conn.commit()
        return len(rows)

    def _watermark(self, run_id: str, key: str) -> Optional[float]:
        pair = (run_id, key)
        mark = self._watermarks.get(pair)
        if mark is None and pair not in self._watermarks:
            row = self._conn.execute(
                "SELECT MAX(t) FROM windows WHERE run_id=? AND key=?",
                pair).fetchone()
            mark = row[0]
            self._watermarks[pair] = mark
        return mark

    def spill_profile(self, run_id: str, report: dict) -> None:
        """Store a flight-recorder report's attribution + throughput.

        Replaces any previous profile rows for the run: the recorder
        aggregates cumulatively, so the latest report supersedes earlier
        spills rather than adding to them.
        """
        self._conn.execute("DELETE FROM profile WHERE run_id=?", (run_id,))
        self._conn.execute("DELETE FROM throughput WHERE run_id=?", (run_id,))
        self._conn.executemany(
            "INSERT INTO profile VALUES (?,?,?,?,?,?)",
            [(run_id, row["event_type"], row["target"], row["count"],
              row["wall_s"], row["share"])
             for row in report.get("attribution", ())])
        self._conn.executemany(
            "INSERT INTO throughput VALUES (?,?,?,?)",
            [(run_id, row["wall_s"], row["sim_t"], row["events"])
             for row in report.get("throughput", ())])
        self._conn.commit()

    def finish_run(self, run_id: str, sim_end: float, events: int,
                   meta: Optional[dict] = None) -> None:
        """Seal the run row (final sim time, event count, merged meta)."""
        if meta:
            row = self._conn.execute(
                "SELECT meta FROM runs WHERE run_id=?", (run_id,)).fetchone()
            merged = json.loads(row[0]) if row else {}
            merged.update(meta)
            self._conn.execute(
                "UPDATE runs SET sim_end=?, events=?, finished=1, meta=? "
                "WHERE run_id=?",
                (float(sim_end), int(events),
                 json.dumps(merged, sort_keys=True), run_id))
        else:
            self._conn.execute(
                "UPDATE runs SET sim_end=?, events=?, finished=1 "
                "WHERE run_id=?",
                (float(sim_end), int(events), run_id))
        self._conn.commit()

    def delete_run(self, run_id: str) -> None:
        for table in ("windows", "profile", "throughput", "runs"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE run_id=?", (run_id,))
        self._watermarks = {k: v for k, v in self._watermarks.items()
                            if k[0] != run_id}
        self._conn.commit()

    # -- reading ---------------------------------------------------------------

    def runs(self) -> list[dict]:
        """Every recorded run, sorted by run id."""
        out = []
        for row in self._conn.execute(
                "SELECT run_id, scenario, seed, scheduler, sim_end, events,"
                " finished, meta, restored_from FROM runs ORDER BY run_id"):
            out.append({
                "run_id": row[0], "scenario": row[1], "seed": row[2],
                "scheduler": row[3], "sim_end": row[4], "events": row[5],
                "finished": bool(row[6]), "meta": json.loads(row[7]),
                "restored_from": row[8],
            })
        return out

    def run(self, run_id: str) -> Optional[dict]:
        for entry in self.runs():
            if entry["run_id"] == run_id:
                return entry
        return None

    def keys(self, run_id: str, prefix: str = "") -> list[str]:
        """Metric keys with spilled windows for a run, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT key FROM windows WHERE run_id=? "
            "AND key LIKE ? ORDER BY key", (run_id, prefix + "%"))
        return [r[0] for r in rows]

    def series(self, run_id: str, key: str,
               since: Optional[float] = None,
               until: Optional[float] = None,
               limit: Optional[int] = None) -> list[dict]:
        """A metric's spilled windows in (t, insertion) order, as the same
        sparse dicts :meth:`Window.to_dict` produces. ``limit`` keeps the
        *newest* windows (tail of the series)."""
        sql = ("SELECT t, kind, value, delta, rate, count, p50, p95, max "
               "FROM windows WHERE run_id=? AND key=?")
        params: list = [run_id, key]
        if since is not None:
            sql += " AND t>=?"
            params.append(float(since))
        if until is not None:
            sql += " AND t<=?"
            params.append(float(until))
        sql += " ORDER BY t, rowid"
        rows = self._conn.execute(sql, params).fetchall()
        if limit is not None and len(rows) > limit:
            rows = rows[-limit:]
        out = []
        for row in rows:
            entry = {"t": row[0], "kind": row[1]}
            for field, value in zip(_WINDOW_FIELDS, row[2:]):
                if value is not None:
                    entry[field] = value
            out.append(entry)
        return out

    def windows(self, run_id: str, key: str, **kwargs) -> list[Window]:
        """:meth:`series` rehydrated into :class:`Window` objects."""
        return [Window(d.pop("t"), d.pop("kind"), **d)
                for d in self.series(run_id, key, **kwargs)]

    def stats(self, run_id: str, key: str,
              since: Optional[float] = None,
              until: Optional[float] = None) -> dict:
        """Aggregate a metric over any horizon of its spilled windows.

        Mirrors the in-memory store's conventions: the per-second ``rate``
        averages deltas over the horizon span, ``p50``/``p95`` report the
        worst (largest) per-window quantile — windows roll independently,
        so exact cross-window quantiles are unavailable and worst-window
        is what an alert would act on.
        """
        rows = self.series(run_id, key, since=since, until=until)
        if not rows:
            return {"windows": 0}
        deltas = [r["delta"] for r in rows if r.get("delta") is not None]
        stats = {
            "windows": len(rows),
            "first_t": rows[0]["t"],
            "last_t": rows[-1]["t"],
            "kind": rows[0]["kind"],
        }
        if deltas:
            stats["delta"] = sum(deltas)
            span = rows[-1]["t"] - rows[0]["t"]
            if span > 0:
                stats["rate"] = round(stats["delta"] / span, 6)
        for field in ("p50", "p95", "max"):
            values = [r[field] for r in rows if r.get(field) is not None]
            if values:
                stats[field] = max(values)
        values = [r["value"] for r in rows if r.get("value") is not None]
        if values:
            stats["last_value"] = values[-1]
        counts = [r["count"] for r in rows if r.get("count") is not None]
        if counts:
            stats["count"] = sum(counts)
        return stats

    def profile(self, run_id: str) -> list[dict]:
        """The run's spilled attribution table, hottest rows first."""
        rows = self._conn.execute(
            "SELECT event_type, target, count, wall_s, share FROM profile "
            "WHERE run_id=? ORDER BY wall_s DESC, event_type, target",
            (run_id,))
        return [{"event_type": r[0], "target": r[1], "count": r[2],
                 "wall_s": r[3], "share": r[4]} for r in rows]

    def throughput(self, run_id: str) -> list[dict]:
        """The run's rolling events/sec samples in recording order."""
        rows = self._conn.execute(
            "SELECT wall_s, sim_t, events FROM throughput "
            "WHERE run_id=? ORDER BY events, rowid", (run_id,))
        return [{"wall_s": r[0], "sim_t": r[1], "events": r[2]}
                for r in rows]
