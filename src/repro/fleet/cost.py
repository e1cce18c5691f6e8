"""The fleet's price list: observed wall timings of past runs.

Points are wildly unequal in wall time (campaign grids sweep
``horizon_cycles`` over orders of magnitude), and a batch group costs one
simulation to its deepest horizon however many points it serves.  The fleet
therefore cuts the campaign's batch groups by estimated **cost**, with the
same cut the pool and ``--shard I/N`` use, priced from real timings:

* :func:`scavenge_point_walls` harvests per-point wall timings from any
  past artifacts of the same campaign found under ``--out`` — the campaign
  directory itself, shard slices, merged and partial runs, killed workers'
  checkpoints — through the same reader as ``--resume`` (a damaged
  directory is skipped with a note, never silently priced at zero; see
  :class:`~repro.sweep.resume.ResumeError`), and :func:`store_point_walls`
  does the same from a results store;
* :func:`~repro.sweep.campaign.estimate_costs` prices every group from
  those walls;
* :func:`~repro.sweep.campaign.cut_shards` turns the cut into explicit
  index-set shards (``I/N@START:STOP,…``), which ride the ordinary
  ``sweep --shard`` worker path unchanged.  A shard never splits a group,
  so no two workers simulate the same prefix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

from repro.sweep.artifacts import read_campaign_artifacts
from repro.sweep.campaign import CampaignSpec
from repro.sweep.resume import ResumeError


def scavenge_point_walls(
    spec: CampaignSpec, out_dir: Path
) -> Tuple[Dict[int, float], List[str]]:
    """Harvest per-point wall timings for ``spec`` from ``out_dir``.

    Reads ``<out>/<campaign>/`` and every directory directly under it (shard
    slices, ``partial/``) through
    :func:`~repro.sweep.artifacts.read_campaign_artifacts`, so a killed
    worker's checkpoint counts like a finished run's manifest.  Returns
    ``(walls, notes)``: the per-index timings (later directories win ties —
    they are at least as fresh) and one note per directory the reader
    rejected as damaged, which then contributes nothing.
    """
    campaign_dir = Path(out_dir) / spec.name
    walls: Dict[int, float] = {}
    notes: List[str] = []
    if not campaign_dir.is_dir():
        return walls, notes
    candidates = [campaign_dir] + sorted(
        child for child in campaign_dir.iterdir() if child.is_dir()
    )
    for directory in candidates:
        try:
            artifacts = read_campaign_artifacts(directory, spec)
        except ResumeError as exc:
            notes.append(str(exc))
            continue
        if artifacts is not None:
            walls.update(artifacts.walls)
    return walls, notes


def store_point_walls(spec: CampaignSpec, db_path: Path) -> Tuple[Dict[int, float], List[str]]:
    """Harvest per-point wall timings for ``spec`` from a results store.

    The store indexes every ingested point by the same ``spec_hash`` the
    directory scavenger validates, so calibration becomes one lookup over
    the accumulated corpus instead of a directory walk.  Returns
    ``(walls, notes)`` like :func:`scavenge_point_walls`: a store that is
    missing, unreadable, or holds no matching campaign contributes nothing
    but a note — the fleet must never die over a pricing hint.
    """
    from repro.store import connect
    from repro.store.schema import StoreError
    from repro.sweep.resume import spec_hash

    walls: Dict[int, float] = {}
    notes: List[str] = []
    try:
        conn = connect(db_path, create=False)
        try:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE spec_hash = ?", (spec_hash(spec),)
            ).fetchone()
            if row is None:
                notes.append(f"store {db_path}: no timings for campaign {spec.name!r} yet")
                return walls, notes
            for point_row in conn.execute(
                "SELECT point_index, wall_seconds FROM points WHERE campaign_id = ?"
                " AND wall_seconds > 0",
                (int(row["id"]),),
            ):
                walls[int(point_row["point_index"])] = float(point_row["wall_seconds"])
        finally:
            conn.close()
    except StoreError as exc:
        notes.append(str(exc))
    return walls, notes
