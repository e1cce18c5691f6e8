"""Schema versioning: fresh init, rejection of any other schema version."""

import pytest

from repro.store import (
    STORE_SCHEMA_VERSION,
    SchemaVersionError,
    StoreError,
    connect,
    schema_version,
)
from repro.store import schema as schema_module


class TestConnect:
    def test_fresh_database_initialises_at_current_version(self, tmp_path):
        conn = connect(tmp_path / "store.sqlite")
        try:
            assert schema_version(conn) == STORE_SCHEMA_VERSION
            tables = {
                row["name"]
                for row in conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
            }
            assert {"campaigns", "points", "ingests", "store_meta"} <= tables
            meta = conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            assert meta["value"] == str(STORE_SCHEMA_VERSION)
        finally:
            conn.close()

    def test_wal_mode_and_row_factory(self, tmp_path):
        conn = connect(tmp_path / "store.sqlite")
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            conn.close()

    def test_reopen_is_a_noop(self, tmp_path):
        connect(tmp_path / "store.sqlite").close()
        conn = connect(tmp_path / "store.sqlite")
        try:
            assert schema_version(conn) == STORE_SCHEMA_VERSION
        finally:
            conn.close()

    def test_create_false_refuses_missing_file(self, tmp_path):
        # A typo'd store path must be a named error, never a silently
        # materialised empty store answering "no rows".
        with pytest.raises(StoreError, match="no such store database"):
            connect(tmp_path / "typo.sqlite", create=False)


class TestVersioning:
    def test_newer_database_is_rejected(self, tmp_path):
        path = tmp_path / "store.sqlite"
        conn = connect(path)
        conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(SchemaVersionError, match="newer than this code"):
            connect(path)

    def test_older_database_without_migration_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        connect(path).close()
        # Tomorrow's code bumps the version but forgot the migration step.
        monkeypatch.setattr(schema_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        with pytest.raises(SchemaVersionError, match="no migration"):
            connect(path)
