"""``--resume-from-store``: resume a sweep from the store instead of a
directory hunt.

Manifest-based ``--resume`` walks the campaign's output directory looking
for artifact sets whose ``spec_hash`` matches.  The store already indexes
every ingested point by exactly that hash, so resume becomes one lookup:
find the campaign row, decode its points through the artifact codec
(:func:`repro.store.query.campaign_points`), and push every point through
the **same** expansion check manifest resume uses —
:func:`repro.sweep.resume.reusable_point` — so the two paths cannot
drift.  ``tests/store/test_resume_from_store.py``
pins that a store resume and a manifest resume of the same campaign
produce byte-identical artifacts with zero recomputed points.

Semantics mirror manifest resume exactly:

* a campaign that is simply *not in the store* (or a missing/other
  campaign's corpus) reuses nothing — silent no-resume, run everything;
* a database that exists but cannot be trusted (wrong schema version,
  records contradicting the current expansion) raises
  :class:`~repro.sweep.resume.ResumeError` — the CLI exits 2;
* a missing database *file* is an error too (``StoreError``): unlike an
  artifact directory, a store path is always explicit user input, so a
  typo must not silently degrade into a full recompute.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict

from repro.store import schema
from repro.store.query import campaign_points
from repro.store.schema import SchemaVersionError, StoreError
from repro.sweep.campaign import CampaignSpec, expand_campaign
from repro.sweep.resume import ResumeError, reusable_point, spec_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep.execute import PointResult


def load_reusable_results_from_store(spec: CampaignSpec, db_path: Path) -> Dict[int, "PointResult"]:
    """Per-point results of ``spec`` held in the store, keyed by index.

    Returns an empty mapping when the store has no campaign row for this
    spec hash (nothing to reuse).  Raises :class:`StoreError` for a
    missing database file and :class:`ResumeError` (via the shared codec
    and expansion check) for stored records that are malformed or
    contradict the current expansion — the same trust boundary as
    manifest resume.
    """
    conn = schema.connect(db_path, create=False)
    try:
        row = conn.execute(
            "SELECT id FROM campaigns WHERE spec_hash = ?", (spec_hash(spec),)
        ).fetchone()
        if row is None:
            return {}
        points = campaign_points(conn, int(row["id"]))
    finally:
        conn.close()
    points_by_index = {point.index: point for point in expand_campaign(spec)}
    source = f"{db_path} (campaign {spec.name!r})"
    return {
        point.index: reusable_point(point, spec, points_by_index, source=source)
        for point in points
    }


__all__ = [
    "load_reusable_results_from_store",
    "ResumeError",
    "SchemaVersionError",
    "StoreError",
]
