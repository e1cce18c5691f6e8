"""Versioned sqlite DDL for the campaign results store.

One database file holds the accumulated corpus of every campaign ever
ingested.  Three tables:

* ``campaigns`` — one row per campaign *identity*, keyed by the same
  ``spec_hash`` that ``--resume`` validates (:mod:`repro.sweep.resume`).
  The row carries everything :func:`~repro.sweep.resume.spec_from_manifest`
  needs, so a store row — like a manifest — can reconstruct its
  :class:`~repro.sweep.campaign.CampaignSpec` registry-free.
* ``points`` — one row per ``(campaign, point_index)``: the point's
  identity (index, seed, horizon), its record payload (params, stats,
  activity, power, area — each stored as canonical JSON so the original
  ``results.json`` record is reconstructable byte for byte), the wall
  timing scavenged from the manifest, and a ``record_sha`` over the
  canonical record used for O(1) dedup/conflict detection on re-ingest.
* ``ingests`` — the provenance log: one row per ingested artifact
  directory with its kind (full / shard / merged / partial), insert/dedup
  counts, and — for merged artifacts — the source shard directories from
  the manifest's ``execution.merged_from`` block.

**Versioning.** The schema version lives in sqlite's ``user_version``
pragma (mirrored into ``store_meta`` for human introspection).  Opening a
database at any other version raises :class:`SchemaVersionError`: schema 1
is the only version there has been, so there is nothing to migrate from.
A fresh file is initialised at :data:`STORE_SCHEMA_VERSION`.

**Concurrency.** Connections run in WAL journal mode: many concurrent
readers proceed while one writer appends — the many-readers/one-writer
serving posture the store exists for.  See ``docs/store.md``.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Union

#: Bump when the store DDL changes (and teach :func:`connect` to migrate).
STORE_SCHEMA_VERSION = 1

#: Default database location, next to the sweep artifact root.
DEFAULT_STORE_DB = "results/store.sqlite"


class StoreError(ValueError):
    """A store operation that cannot proceed: a missing or unreadable
    database, artifacts that fail validation, a malformed query.  The
    message always names the offending path/column/value."""


class SchemaVersionError(StoreError):
    """The database's schema version is not :data:`STORE_SCHEMA_VERSION`:
    it is newer than this code, or older than any version it can read."""


_DDL = """
CREATE TABLE campaigns (
    id INTEGER PRIMARY KEY,
    spec_hash TEXT NOT NULL UNIQUE,
    name TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT '',
    scenario TEXT NOT NULL,
    base_seed INTEGER NOT NULL,
    dense INTEGER NOT NULL,
    axis_order TEXT NOT NULL,        -- JSON list: grid axes in row-major order
    grid TEXT NOT NULL,              -- JSON object: axis -> value list
    points_total INTEGER NOT NULL,   -- size of the full expanded grid
    artifact_schema_version INTEGER NOT NULL
);

CREATE TABLE points (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    point_index INTEGER NOT NULL,
    scenario TEXT NOT NULL,
    horizon_cycles INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    params TEXT NOT NULL,            -- canonical JSON (sorted keys, compact)
    stats TEXT NOT NULL,
    activity TEXT NOT NULL,
    power_uw TEXT NOT NULL,
    area_kge TEXT NOT NULL,
    wall_seconds REAL NOT NULL DEFAULT 0.0,
    record_sha TEXT NOT NULL,        -- sha256 of the canonical record (dedup key)
    PRIMARY KEY (campaign_id, point_index)
);

CREATE INDEX idx_points_scenario ON points(scenario);
CREATE INDEX idx_points_horizon ON points(campaign_id, horizon_cycles);

CREATE TABLE ingests (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    source TEXT NOT NULL,            -- the ingested artifact directory
    kind TEXT NOT NULL,              -- full | shard | merged | partial
    inserted INTEGER NOT NULL,
    deduplicated INTEGER NOT NULL,
    conflicts INTEGER NOT NULL,
    merged_from TEXT NOT NULL DEFAULT '[]'  -- JSON list of source shard dirs
);

CREATE TABLE store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def connect(
    path: Union[str, Path], *, create: bool = True, timeout: float = 30.0
) -> sqlite3.Connection:
    """Open (and if needed initialise) the store at ``path``.

    Returns a WAL-mode connection with ``sqlite3.Row`` rows and foreign
    keys enforced.  ``create=False`` refuses to materialise a missing file
    — the read-side (``store query``/``store info``/``--resume-from-store``)
    uses it so a typo'd path is a named error, never a fresh empty store
    silently answering "no rows".
    """
    path = Path(path)
    if not create and not path.exists():
        raise StoreError(f"{path}: no such store database (ingest something first?)")
    if create:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        conn = sqlite3.connect(str(path), timeout=timeout)
    except sqlite3.Error as exc:
        raise StoreError(f"{path}: cannot open store database: {exc}") from exc
    conn.row_factory = sqlite3.Row
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.execute("PRAGMA synchronous=NORMAL")
        _ensure_schema(conn, path)
    except sqlite3.Error as exc:
        # A file that is not (or no longer) a sqlite database must surface
        # as a StoreError so callers with a degrade path (the fleet) catch it.
        conn.close()
        raise StoreError(f"{path}: not a usable store database: {exc}") from exc
    except BaseException:
        conn.close()
        raise
    return conn


def schema_version(conn: sqlite3.Connection) -> int:
    """The schema version recorded in the database's ``user_version``."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def _is_empty(conn: sqlite3.Connection) -> bool:
    row = conn.execute("SELECT count(*) FROM sqlite_master WHERE type = 'table'").fetchone()
    return int(row[0]) == 0


def _stamp_version(conn: sqlite3.Connection, version: int) -> None:
    # PRAGMA does not take parameters; version is always an int from our code.
    conn.execute(f"PRAGMA user_version = {int(version)}")
    conn.execute(
        "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?) "
        "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
        (str(version),),
    )


def _ensure_schema(conn: sqlite3.Connection, path: Path) -> None:
    version = schema_version(conn)
    if _is_empty(conn):
        with conn:
            conn.executescript(_DDL)
            _stamp_version(conn, STORE_SCHEMA_VERSION)
        return
    if version == STORE_SCHEMA_VERSION:
        return
    if version > STORE_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: store schema version {version} is newer than this code "
            f"supports ({STORE_SCHEMA_VERSION}) — upgrade the code, not the database"
        )
    raise SchemaVersionError(
        f"{path}: store schema version {version} predates this code "
        f"({STORE_SCHEMA_VERSION}) and there is no migration from it — re-ingest into "
        f"a fresh database"
    )
