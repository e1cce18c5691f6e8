"""Idempotent ingestion of sweep artifact directories into the store.

:func:`ingest_artifacts` takes one artifact directory — a full run, a
``--shard I/N`` slice, a merged multi-host run, or a partial merge — as
the artifact reader returned it, and folds its points into the database:

* **Validation is merge's validation.**  :func:`ingest_directories` reads
  each directory through the one artifact reader,
  :func:`repro.sweep.artifacts.read_artifact_dir`, which also serves
  ``--resume``, ``sweep merge`` and the fleet's acceptance gate: a manifest
  whose ``spec_hash`` disagrees with its own campaign block, a malformed
  or out-of-range record, or a non-numeric wall timing is rejected (as a
  :class:`StoreError`) before anything is written.  The fleet passes the
  :class:`~repro.sweep.artifacts.ArtifactDir` its acceptance gate already
  read, so an accepted shard is not read again.
* **Dedup is keyed on ``(spec_hash, point_index)``** — the same identity
  ``--resume`` trusts.  A record already in the store with the same
  ``record_sha`` (sha256 over the canonical compact JSON of the record)
  is counted as *deduplicated* and skipped; re-ingesting the same
  artifacts therefore inserts zero rows.  A colliding index whose sha
  **differs** is a *conflict*: determinism says the same campaign point
  can only ever produce one record, so a mismatch means corrupt or
  hand-edited artifacts — the directory's whole transaction is rolled
  back (the store is never left half-ingested) and the conflicting
  indices are reported structurally.
* **Provenance is logged**, not inferred: every accepted directory gets
  an ``ingests`` row recording its kind (``full``/``shard``/``merged``/
  ``partial``) and, for merged artifacts, the source shard directories
  from the manifest's ``execution.merged_from`` block (both read through
  :attr:`~repro.sweep.artifacts.ArtifactDir.kind` and
  :attr:`~repro.sweep.artifacts.ArtifactDir.merged_from`, next to the
  writer that stamps them).

Wall timings ride along from ``execution.point_wall_seconds`` so the
fleet's cost model (:func:`repro.fleet.cost.store_point_walls`) can price
points from the store.  Ingestion emits a ``store.ingest`` span per
directory when a tracer is installed.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.obs import tracing
from repro.store.schema import StoreError
from repro.sweep.artifacts import SCHEMA_VERSION, ArtifactDir, point_record, read_artifact_dir
from repro.sweep.campaign import CampaignSpec
from repro.sweep.resume import ResumeError, spec_hash


def canonical_json(value: object) -> str:
    """The canonical compact serialisation hashed and stored per record."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_sha(record: Dict[str, object]) -> str:
    """sha256 over the canonical record — the dedup/conflict key."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


class _ConflictRollback(Exception):
    """Internal: unwinds the ``with conn`` transaction block so sqlite rolls
    the whole directory back when content conflicts were detected."""


@dataclass
class DirectoryReport:
    """What ingesting one artifact directory did (or refused to do)."""

    source: str
    kind: str = ""
    campaign: str = ""
    spec_hash: str = ""
    n_records: int = 0
    inserted: int = 0
    deduplicated: int = 0
    #: Structured conflict records: ``{"index", "stored_sha", "incoming_sha"}``.
    #: Non-empty means the directory's transaction was rolled back whole.
    conflicts: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def as_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "kind": self.kind,
            "campaign": self.campaign,
            "spec_hash": self.spec_hash,
            "n_records": self.n_records,
            "inserted": self.inserted,
            "deduplicated": self.deduplicated,
            "conflicts": list(self.conflicts),
            "ok": self.ok,
        }


@dataclass
class IngestReport:
    """The combined outcome of one ``store ingest`` invocation."""

    directories: List[DirectoryReport] = field(default_factory=list)

    @property
    def inserted(self) -> int:
        return sum(report.inserted for report in self.directories)

    @property
    def deduplicated(self) -> int:
        return sum(report.deduplicated for report in self.directories)

    @property
    def conflicts(self) -> int:
        return sum(len(report.conflicts) for report in self.directories)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.directories)

    def as_dict(self) -> Dict[str, object]:
        return {
            "inserted": self.inserted,
            "deduplicated": self.deduplicated,
            "conflicts": self.conflicts,
            "ok": self.ok,
            "directories": [report.as_dict() for report in self.directories],
        }


def _upsert_campaign(
    conn: sqlite3.Connection, spec: CampaignSpec, points_total: int
) -> int:
    """Find or create the campaign row for ``spec``; return its id."""
    digest = spec_hash(spec)
    row = conn.execute("SELECT id FROM campaigns WHERE spec_hash = ?", (digest,)).fetchone()
    if row is not None:
        return int(row["id"])
    cursor = conn.execute(
        "INSERT INTO campaigns (spec_hash, name, description, scenario, base_seed,"
        " dense, axis_order, grid, points_total, artifact_schema_version)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            digest,
            spec.name,
            spec.description,
            spec.scenario,
            spec.base_seed,
            int(spec.dense),
            canonical_json(list(spec.grid)),
            canonical_json({axis: list(values) for axis, values in spec.grid.items()}),
            points_total,
            SCHEMA_VERSION,
        ),
    )
    return int(cursor.lastrowid)


def ingest_artifacts(conn: sqlite3.Connection, artifacts: ArtifactDir) -> DirectoryReport:
    """Ingest one read artifact directory in one transaction.

    Returns the per-directory report.  Conflicting records (same
    ``(spec_hash, point_index)``, different content) roll back the whole
    directory — partial ingestion of an inconsistent directory would be a
    corrupt store — and land in ``report.conflicts``.
    """
    directory = artifacts.directory
    spec = artifacts.spec
    kind = artifacts.kind

    report = DirectoryReport(
        source=str(directory), kind=kind, campaign=spec.name, spec_hash=artifacts.spec_hash
    )
    with tracing.span("store.ingest", "store", source=str(directory), kind=kind) as args:
        try:
            with conn:  # one transaction per directory
                campaign_id = _upsert_campaign(conn, spec, artifacts.points_total)
                for point in artifacts.points:
                    sha = record_sha(point_record(point))
                    report.n_records += 1
                    existing = conn.execute(
                        "SELECT record_sha FROM points WHERE campaign_id = ? AND point_index = ?",
                        (campaign_id, point.index),
                    ).fetchone()
                    if existing is not None:
                        if existing["record_sha"] == sha:
                            report.deduplicated += 1
                        else:
                            report.conflicts.append(
                                {
                                    "index": point.index,
                                    "stored_sha": existing["record_sha"],
                                    "incoming_sha": sha,
                                }
                            )
                        continue
                    conn.execute(
                        "INSERT INTO points (campaign_id, point_index, scenario,"
                        " horizon_cycles, seed, params, stats, activity, power_uw,"
                        " area_kge, wall_seconds, record_sha)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            campaign_id,
                            point.index,
                            point.scenario,
                            point.horizon_cycles,
                            point.seed,
                            canonical_json(point.params),
                            canonical_json(point.stats),
                            canonical_json(point.activity),
                            canonical_json(point.power_uw),
                            canonical_json(point.area_kge),
                            point.wall_seconds,
                            sha,
                        ),
                    )
                    report.inserted += 1
                if report.conflicts:
                    # Roll the whole directory back: determinism says a campaign
                    # point has exactly one record, so a content collision means
                    # these artifacts cannot be trusted at all.
                    report.inserted = 0
                    raise _ConflictRollback()
                conn.execute(
                    "INSERT INTO ingests (campaign_id, source, kind, inserted,"
                    " deduplicated, conflicts, merged_from) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        str(directory),
                        kind,
                        report.inserted,
                        report.deduplicated,
                        0,
                        canonical_json(artifacts.merged_from),
                    ),
                )
        except _ConflictRollback:
            pass
        args.update(inserted=report.inserted, deduplicated=report.deduplicated, conflicts=len(report.conflicts))
    return report


def ingest_directories(conn: sqlite3.Connection, directories: Sequence[Path]) -> IngestReport:
    """Read and ingest several artifact directories, one at a time and one
    transaction each.

    A directory with content conflicts is rolled back and reported but
    does not stop the remaining directories; a directory that fails
    validation raises :class:`StoreError` immediately (nothing about it
    was written).
    """
    report = IngestReport()
    for directory in directories:
        try:
            artifacts = read_artifact_dir(directory)
        except ResumeError as exc:
            raise StoreError(str(exc)) from None
        report.directories.append(ingest_artifacts(conn, artifacts))
    return report
