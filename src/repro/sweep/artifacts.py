"""Structured sweep artifacts: results.json, results.csv, manifest.json.

One campaign execution writes three files under ``<out_dir>/<campaign>/``:

* ``results.json`` — the full per-point records (params, seed, stats,
  flattened activity counters, power and area breakdowns).  Deterministic:
  sorted keys, no timing, no environment — byte-identical between a serial
  and a sharded run of the same campaign.
* ``results.csv`` — the same data flattened to one row per point with
  namespaced columns (``param.*``, ``stat.*``, ``power_uw.*``,
  ``area_kge.*``) for spreadsheet/pandas consumption.  Activity counters are
  deliberately left to the JSON (hundreds of sparse columns help nobody).
* ``manifest.json`` — everything needed to reproduce and audit the run: the
  campaign spec (scenario, grid, base seed, kernel), the artifact schema
  version, the point count, and the execution record (jobs, wall-clock
  timings, reused/computed point counts, python version).  Timing lives
  *only* here so the two result files stay comparable across executions.

**Sharded runs** (``--shard I/N``) additionally stamp both ``results.json``
and ``manifest.json`` with a ``shard`` block (index, count, covered index
range, full-grid point count); ``n_points`` counts the shard's own points.
An unsharded run's artifacts carry no ``shard`` block, which is exactly the
shape :mod:`repro.sweep.merge` reconstructs when stitching shards together.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.sweep.campaign import CampaignSpec, ShardSpec
from repro.sweep.execute import CampaignResult, PointResult

#: Bump when the shape of results.json / results.csv / manifest.json changes.
SCHEMA_VERSION = 1

RESULTS_JSON = "results.json"
RESULTS_CSV = "results.csv"
MANIFEST_JSON = "manifest.json"


def point_record(result: PointResult) -> Dict[str, object]:
    """The deterministic JSON record of one point (no timing)."""
    return {
        "index": result.index,
        "scenario": result.scenario,
        "horizon_cycles": result.horizon_cycles,
        "seed": result.seed,
        "params": dict(result.params),
        "stats": dict(result.stats),
        "activity": dict(result.activity),
        "power_uw": dict(result.power_uw),
        "area_kge": dict(result.area_kge),
    }


def shard_record(result: CampaignResult) -> Optional[Dict[str, object]]:
    """The ``shard`` block stamped into sharded artifacts (None when the
    execution covered the whole grid)."""
    if result.shard is None:
        return None
    start, stop = result.shard.bounds(result.points_total)
    return {
        "index": result.shard.index,
        "count": result.shard.count,
        "start": start,
        "stop": stop,
        "points_total": result.points_total,
    }


def results_payload(result: CampaignResult) -> Dict[str, object]:
    """The deterministic results.json payload for one campaign execution.

    A sharded execution adds a ``shard`` block; an unsharded one emits
    exactly the pre-shard schema, byte for byte.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "campaign": result.campaign,
        "scenario": result.scenario,
        "n_points": result.n_points,
        "points": [point_record(point) for point in result.points],
    }
    shard = shard_record(result)
    if shard is not None:
        payload["shard"] = shard
    return payload


def manifest_payload(spec: CampaignSpec, result: CampaignResult) -> Dict[str, object]:
    """The manifest.json payload (reproducibility + execution record).

    ``spec_hash`` is the campaign-identity digest ``--resume`` validates
    before reusing any stored point (see :mod:`repro.sweep.resume`).
    """
    from repro.sweep.resume import spec_hash

    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": spec_hash(spec),
        "campaign": {
            "name": spec.name,
            "description": spec.description,
            "scenario": spec.scenario,
            "grid": {axis: list(values) for axis, values in spec.grid.items()},
            # The manifest is dumped with sorted keys, which would scramble
            # the grid's axis order — but axis order *is* campaign identity
            # (row-major expansion numbers the points with it).  Record it
            # explicitly so the spec can be reconstructed exactly
            # (resume.spec_from_manifest, sweep merge).
            "axis_order": list(spec.grid),
            "base_seed": spec.base_seed,
            "dense": spec.dense,
            "seed_scheme": "sha256(name:base_seed:index)[:4 bytes]",
        },
        "n_points": result.n_points,
        "artifacts": [RESULTS_JSON, RESULTS_CSV],
        "execution": {
            "jobs": result.jobs,
            "chunk": result.chunk,
            "reused_points": result.n_reused,
            "computed_points": result.n_computed,
            "batched_points": result.batched_points,
            # Why points that could have batched did not (empty when every
            # executed point batched, or when batching was off): audit trail
            # for a campaign that quietly lost its shared-prefix execution.
            "batch_fallbacks": [dict(record) for record in result.batch_fallbacks],
            # Points whose execution raised: structured records (label,
            # params, error, traceback) so a failure is triagable from the
            # artifacts alone.  Failed points are absent from results.json —
            # downstream (merge --heal, the fleet) treats them as missing
            # coverage and re-runs exactly those points.
            "failed_points": [dict(record) for record in result.failed_points],
            "wall_seconds": result.wall_seconds,
            "point_wall_seconds": {
                str(point.index): point.wall_seconds for point in result.points
            },
            "python_version": platform.python_version(),
        },
    }
    if result.telemetry is not None:
        # Telemetry (phase profile, metrics registry, trace pointer) lives
        # only in the manifest: results.json/results.csv must stay
        # byte-identical whether a run was traced/profiled or not.
        payload["execution"]["telemetry"] = result.telemetry
    if result.cache is not None:
        # Warm-run provenance: the resolved --plan-cache path plus summed
        # hit/miss/write/error totals (and any swallowed corruption notes).
        # Manifest-only, like telemetry: the cache changes wall-clock, never
        # the comparable payload, so results.json/csv stay byte-identical
        # between cold and warm runs.
        payload["execution"]["cache"] = result.cache
    shard = shard_record(result)
    if shard is not None:
        payload["shard"] = shard
    return payload


def _csv_columns(result: CampaignResult) -> List[str]:
    param_keys = sorted({key for point in result.points for key in point.params})
    stat_keys = sorted({key for point in result.points for key in point.stats})
    power_keys = sorted({key for point in result.points for key in point.power_uw})
    area_keys = sorted({key for point in result.points for key in point.area_kge})
    return (
        ["index", "scenario", "horizon_cycles", "seed"]
        + [f"param.{key}" for key in param_keys]
        + [f"stat.{key}" for key in stat_keys]
        + [f"power_uw.{key}" for key in power_keys]
        + [f"area_kge.{key}" for key in area_keys]
    )


def _csv_cell(value: object) -> object:
    # csv renders True/False; normalise to 0/1 so downstream numeric parsing
    # of stat columns (e.g. ``stat.recovered``) keeps working.
    if isinstance(value, bool):
        return int(value)
    return value


def write_results_csv(result: CampaignResult, path: Path) -> None:
    """Write the per-point CSV table."""
    columns = _csv_columns(result)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for point in result.points:
            row = []
            for column in columns:
                if column == "index":
                    row.append(point.index)
                elif column == "scenario":
                    row.append(point.scenario)
                elif column == "horizon_cycles":
                    row.append(point.horizon_cycles)
                elif column == "seed":
                    row.append(point.seed)
                else:
                    namespace, _, key = column.partition(".")
                    source = {
                        "param": point.params,
                        "stat": point.stats,
                        "power_uw": point.power_uw,
                        "area_kge": point.area_kge,
                    }[namespace]
                    row.append(_csv_cell(source.get(key, "")))
            writer.writerow(row)


def shard_dirname(shard: "ShardSpec") -> str:
    """The shard-qualified artifact subdirectory name a sharded CLI run
    nests under the campaign directory, so shard slices never overwrite the
    campaign-level (full or merged) artifacts: ``shard-I-of-N`` for balanced
    shards, ``shard-I-of-N-span-START-STOP`` for explicit-range shards (the
    span is part of the identity — two cuts sharing an index must not
    clobber each other's artifacts)."""
    if shard.span is not None:
        start, stop = shard.span
        return f"shard-{shard.index}-of-{shard.count}-span-{start}-{stop}"
    return f"shard-{shard.index}-of-{shard.count}"


def write_artifacts(
    spec: CampaignSpec, result: CampaignResult, out_dir: Path, subdir: Optional[str] = None
) -> Dict[str, Path]:
    """Write all three artifacts under ``out_dir / spec.name [/ subdir]``;
    return paths.  ``subdir`` is how the CLI keeps a shard's artifacts
    (``shard-I-of-N``) from clobbering campaign-level ones."""
    campaign_dir = Path(out_dir) / spec.name
    if subdir is not None:
        campaign_dir = campaign_dir / subdir
    campaign_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "results_json": campaign_dir / RESULTS_JSON,
        "results_csv": campaign_dir / RESULTS_CSV,
        "manifest_json": campaign_dir / MANIFEST_JSON,
    }
    # The write phase must land in the manifest it is part of, so it covers
    # the two result files only; the manifest dump itself goes untimed.
    write_start = time.perf_counter()
    paths["results_json"].write_text(
        json.dumps(results_payload(result), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_results_csv(result, paths["results_csv"])
    if result.telemetry is not None:
        profile = result.telemetry.setdefault("profile", {})
        profile["write"] = profile.get("write", 0.0) + (time.perf_counter() - write_start)
    paths["manifest_json"].write_text(
        json.dumps(manifest_payload(spec, result), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
