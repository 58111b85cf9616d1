"""HistoryStore schema v1 -> v2 migration (the ``restored_from`` marker)."""

import sqlite3

import pytest

from repro.observability.store import SCHEMA_VERSION, _SCHEMA, HistoryStore

V1_SCHEMA = _SCHEMA.replace(",\n    restored_from TEXT", "")


def _create_v1(path):
    conn = sqlite3.connect(path)
    conn.executescript(V1_SCHEMA)
    conn.execute(
        "INSERT INTO runs (run_id, scenario, seed, scheduler, meta) "
        "VALUES ('old-run', 'paper-lab', 2009, 'heap', '{}')")
    conn.execute("PRAGMA user_version=1")
    conn.commit()
    conn.close()


def test_schema_version_is_two():
    assert SCHEMA_VERSION == 2
    assert "restored_from TEXT" in _SCHEMA
    assert "restored_from" not in V1_SCHEMA  # the fixture really is v1


def test_v1_database_migrates_in_place(tmp_path):
    db = tmp_path / "old.db"
    _create_v1(db)
    with HistoryStore(db) as store:
        (run,) = store.runs()
        # Pre-existing rows carry the NULL marker: nothing before v2 was
        # a snapshot restore.
        assert run["run_id"] == "old-run"
        assert run["restored_from"] is None
        # And the migrated file accepts v2 writes immediately.
        store.begin_run("resumed", "paper-lab", 2009, "heap",
                        restored_from="abc123")
    conn = sqlite3.connect(db)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
    conn.close()


def test_migration_is_idempotent(tmp_path):
    db = tmp_path / "old.db"
    _create_v1(db)
    HistoryStore(db).close()
    with HistoryStore(db) as store:  # second open: already v2, no ALTER
        assert [run["run_id"] for run in store.runs()] == ["old-run"]


def test_restored_from_round_trips(tmp_path):
    with HistoryStore(tmp_path / "new.db") as store:
        store.begin_run("plain", "paper-lab", 1, "heap")
        store.begin_run("resumed", "paper-lab", 2, "heap",
                        restored_from="d" * 64)
        runs = {run["run_id"]: run["restored_from"] for run in store.runs()}
    assert runs == {"plain": None, "resumed": "d" * 64}


def test_future_schema_still_refused(tmp_path):
    db = tmp_path / "future.db"
    conn = sqlite3.connect(db)
    conn.executescript(_SCHEMA)
    conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(ValueError, match="schema"):
        HistoryStore(db)
