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
and ``manifest.json`` with a ``shard`` block (index, count, the covered
index set as half-open ``runs``, full-grid point count); ``n_points``
counts the shard's own points.
An unsharded run's artifacts carry no ``shard`` block, which is exactly the
shape :mod:`repro.sweep.merge` reconstructs when stitching shards together.

While a run is writing, its directory also holds ``checkpoint.jsonl``
(:class:`Checkpoint`): an identity header line, then one line per finished
point, appended once per finished batch group.  It is deleted once the
three files above are written, so only a killed run leaves one behind, and
its finished groups are then read back like any other artifacts.

This module owns the format in both directions.  :func:`point_record` writes
one point and :func:`point_from_record` is its only inverse;
:func:`write_artifacts` is the one writer of a directory, merges included
(:func:`manifest_payload` stamps ``merged_from`` and ``partial``), and
:func:`read_artifact_dir` is the one reader behind ``sweep merge``,
``store ingest`` and the fleet's acceptance gate, with
:func:`read_campaign_artifacts` its form for ``--resume`` and the fleet's
timing scavenger.  Every damaged artifact it meets raises
:class:`~repro.sweep.resume.ResumeError` naming the file and the problem.
The :class:`ArtifactDir` it returns holds the decoded points, and merge and
ingest take that object, so the fleet reads each shard directory once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sweep.campaign import CampaignSpec, ShardSpec, SweepPoint, batch_groups, index_runs
from repro.sweep.execute import CampaignResult, PointResult
from repro.sweep.resume import ResumeError, load_artifact_json, spec_from_manifest, spec_hash

#: Bump when the shape of results.json / results.csv / manifest.json changes.
SCHEMA_VERSION = 1

RESULTS_JSON = "results.json"
RESULTS_CSV = "results.csv"
MANIFEST_JSON = "manifest.json"
CHECKPOINT_JSONL = "checkpoint.jsonl"


#: A point record's exact key set: the identity fields, then the mapping
#: payloads.  The key names are the :class:`PointResult` field names.
RECORD_IDENTITY_KEYS = ("index", "scenario", "horizon_cycles", "seed")
RECORD_PAYLOAD_KEYS = ("params", "stats", "activity", "power_uw", "area_kge")
RECORD_KEYS = frozenset(RECORD_IDENTITY_KEYS + RECORD_PAYLOAD_KEYS)


def point_record(result: PointResult) -> Dict[str, object]:
    """The deterministic JSON record of one point (no timing)."""
    record: Dict[str, object] = {key: getattr(result, key) for key in RECORD_IDENTITY_KEYS}
    for key in RECORD_PAYLOAD_KEYS:
        record[key] = dict(getattr(result, key))
    return record


def _int_field(block: Mapping[str, object], key: str, where: str) -> int:
    value = block.get(key)
    # type() rather than isinstance(): a bool is an int subclass, not an index.
    if type(value) is not int:
        raise ResumeError(f"{where}: {key} {value!r} is not an integer")
    return value


def point_from_record(record: object, source: str) -> PointResult:
    """The :class:`PointResult` one stored record describes: the inverse of
    :func:`point_record`, and the only place a record becomes a result.

    Strict, so that every reader gives one verdict: the exact key set,
    ``int`` identity fields (a bool or a float is not an index, horizon or
    seed), a ``str`` scenario and mapping payloads.  Raises
    :class:`ResumeError` naming ``source``.  ``wall_seconds`` stays 0.0:
    timings live in the manifest, not in the record.
    """
    if not isinstance(record, dict):
        raise ResumeError(f"{source}: point record {str(record)[:80]!r} is malformed (not an object)")
    where = f"{source}: point record {record.get('index')!r} is malformed"
    if record.keys() != RECORD_KEYS:
        missing = sorted(RECORD_KEYS - record.keys())
        extra = sorted(record.keys() - RECORD_KEYS)
        raise ResumeError(f"{where}: missing keys {missing}, unexpected keys {extra}")
    for key in ("index", "horizon_cycles", "seed"):
        _int_field(record, key, where)
    if not isinstance(record["scenario"], str):
        raise ResumeError(f"{where}: scenario {record['scenario']!r} is not a string")
    for key in RECORD_PAYLOAD_KEYS:
        if not isinstance(record[key], dict):
            raise ResumeError(f"{where}: {key} is not a mapping")
    return PointResult(**record)


def shard_block(shard: ShardSpec, points_total: int) -> Dict[str, object]:
    """The ``shard`` block of one resolved (explicit index set) shard."""
    return {
        "index": shard.index,
        "count": shard.count,
        "runs": [list(run) for run in shard.runs],
        "points_total": points_total,
    }


def shard_record(result: CampaignResult) -> Optional[Dict[str, object]]:
    """The ``shard`` block stamped into sharded artifacts (None when the
    execution covered the whole grid)."""
    if result.shard is None:
        return None
    return shard_block(result.shard, result.points_total)


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


def campaign_block(spec: CampaignSpec) -> Dict[str, object]:
    """The manifest's (and the checkpoint header's) campaign block."""
    return {
        "name": spec.name,
        "description": spec.description,
        "scenario": spec.scenario,
        "grid": {axis: list(values) for axis, values in spec.grid.items()},
        # The manifest is dumped with sorted keys, which would scramble the
        # grid's axis order — but axis order *is* campaign identity
        # (row-major expansion numbers the points with it).  Record it
        # explicitly so the spec can be reconstructed exactly
        # (resume.spec_from_manifest, sweep merge).
        "axis_order": list(spec.grid),
        "base_seed": spec.base_seed,
        "dense": spec.dense,
        "seed_scheme": "sha256(name:base_seed:index)[:4 bytes]",
    }


def manifest_payload(spec: CampaignSpec, result: CampaignResult) -> Dict[str, object]:
    """The manifest.json payload (reproducibility + execution record).

    ``spec_hash`` is the campaign-identity digest ``--resume`` validates
    before reusing any stored point (see :mod:`repro.sweep.resume`).  A
    merged result (``result.merged_from`` set) records its sources in
    ``execution.merged_from`` and ``jobs: null``, and a partial one the
    points it lacks in a ``partial`` block.
    """
    if result.merged_from is None:
        jobs, reused, computed, batched = result.jobs, result.n_reused, result.n_computed, result.batched_points
    else:
        # A merge ran nothing itself: its counts are the ones its sources
        # counted, which the merged telemetry already sums.
        counters = result.telemetry.get("metrics", {}).get("counter", {})
        jobs = None
        reused, computed, batched = (
            int(counters.get(f"sweep.points{{kind={kind}}}", 0)) for kind in ("reused", "computed", "batched")
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": spec_hash(spec),
        "campaign": campaign_block(spec),
        "n_points": result.n_points,
        "artifacts": [RESULTS_JSON, RESULTS_CSV],
        "execution": {
            "jobs": jobs,
            "reused_points": reused,
            "computed_points": computed,
            "batched_points": batched,
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
    # Telemetry (phase profile, metrics registry, trace pointer) lives only
    # in the manifest: results.json/results.csv must stay byte-identical
    # whether a run was traced or not.
    payload["execution"]["telemetry"] = result.telemetry
    if result.merged_from is not None:
        payload["execution"]["merged_from"] = result.merged_from
    if result.missing:
        # A partial merge (fleet retry budget exhausted) must say so in its
        # own manifest, so nothing downstream mistakes the salvage for the
        # campaign.
        payload["partial"] = {"points_total": result.points_total, "missing": list(result.missing)}
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
    shards, ``shard-I-of-N-span-START-STOP`` for a one-run explicit shard
    and ``shard-I-of-N-set-<digest>`` for a longer index set.  The index set
    is part of the identity: two cuts sharing an index must not clobber
    each other's artifacts."""
    name = f"shard-{shard.index}-of-{shard.count}"
    if shard.runs is None:
        return name
    if len(shard.runs) == 1:
        ((start, stop),) = shard.runs
        return f"{name}-span-{start}-{stop}"
    return f"{name}-set-{hashlib.sha256(str(shard).encode('utf-8')).hexdigest()[:12]}"


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
    profile = result.telemetry.setdefault("profile", {})
    profile["write"] = profile.get("write", 0.0) + (time.perf_counter() - write_start)
    paths["manifest_json"].write_text(
        json.dumps(manifest_payload(spec, result), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths


class Checkpoint:
    """``checkpoint.jsonl``: the finished points of a run still writing its
    artifact directory.

    The process that owns the directory hands every finished point to
    :meth:`add`; the sweep CLI does so from its ``progress`` callback.  The
    first line is an identity header: the campaign block, ``spec_hash``,
    ``schema_version`` and any shard block.  Every further line is one
    :func:`point_record` plus its wall time.  Lines go out in one append and
    one flush per finished batch group of ``points`` (the run's points, less
    the ``reused`` ones), so a killed run loses only the groups it had not
    finished.  Reused points ride along with the first append, and a run
    that computes nothing writes nothing.  :meth:`discard` deletes the file
    once the three artifacts are written.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: Path,
        points: Sequence[SweepPoint],
        shard: Optional[ShardSpec] = None,
        reused: Iterable[int] = (),
    ) -> None:
        self.path = Path(directory) / CHECKPOINT_JSONL
        self._partial = self.path.with_name(CHECKPOINT_JSONL + ".tmp")
        header = {"campaign": campaign_block(spec), "schema_version": SCHEMA_VERSION, "spec_hash": spec_hash(spec)}
        if shard is not None:
            resolved = ShardSpec(shard.index, shard.count, index_runs(point.index for point in points))
            header["shard"] = shard_block(resolved, spec.n_points)
        self._lines = [json.dumps(header, sort_keys=True) + "\n"]
        skip = set(reused)
        groups = batch_groups([point for point in points if point.index not in skip])
        self._group_of = {point.index: number for number, group in enumerate(groups) for point in group}
        self._left = [len(group) for group in groups]
        self._handle = None

    def add(self, result: PointResult) -> None:
        """Take one finished point; append every pending line once its
        group is complete."""
        entry = {"record": point_record(result), "wall_seconds": result.wall_seconds}
        self._lines.append(json.dumps(entry, sort_keys=True) + "\n")
        group = self._group_of.get(result.index)
        if group is None:  # a reused point
            return
        self._left[group] -= 1
        if self._left[group] == 0:
            first = self._handle is None
            if first:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._partial.open("w", encoding="utf-8")
            self._handle.write("".join(self._lines))
            self._handle.flush()
            self._lines.clear()
            if first:
                # An older checkpoint (the one a resumed run reuses) is
                # replaced only once this one holds everything it held.
                os.replace(self._partial, self.path)

    def discard(self) -> None:
        """Delete the checkpoint (the run's artifacts are written)."""
        if self._handle is not None:
            self._handle.close()
        self.path.unlink(missing_ok=True)
        self._partial.unlink(missing_ok=True)


def read_checkpoint(path: Path) -> Optional[Tuple[Dict[str, object], Dict[str, object]]]:
    """The ``(results, manifest)`` pair a checkpoint stands for, shaped like
    the two JSON files so :func:`parse_artifact_dir` checks it the same way.

    A final line with no newline is the one a kill can cut short, so it is
    dropped, and a checkpoint with no complete line holds nothing (None).
    Any other line that is not a JSON object, and a point line that is not
    exactly ``record`` plus ``wall_seconds``, raises :class:`ResumeError`
    naming the file and the line.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    except OSError as exc:
        raise ResumeError(f"{path}: unreadable: {exc}") from None
    if not lines:
        return None
    entries = []
    for number, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise ResumeError(f"{path}: line {number} is not valid JSON (truncated or corrupt): {exc}") from None
        if not isinstance(entry, dict):
            raise ResumeError(f"{path}: line {number} is not a JSON object")
        if number > 1 and entry.keys() != {"record", "wall_seconds"}:
            raise ResumeError(f"{path}: line {number} is not a point line (keys {sorted(entry)})")
        entries.append(entry)
    header, points = entries[0], entries[1:]
    walls = {}
    for entry in points:
        record = entry["record"]
        if isinstance(record, dict) and type(record.get("index")) is int:
            walls[str(record["index"])] = entry["wall_seconds"]
    campaign = header.get("campaign") if isinstance(header.get("campaign"), dict) else {}
    results = {
        "campaign": campaign.get("name"),
        "scenario": campaign.get("scenario"),
        "points": [entry["record"] for entry in points],
    }
    return results, dict(header, execution={"point_wall_seconds": walls})


def load_artifact_pair(
    directory: Path, required: bool = False
) -> Tuple[Optional[Dict[str, object]], Optional[Dict[str, object]], bool]:
    """``(results, manifest, from_checkpoint)`` of one artifact directory.

    A checkpoint is the newest state of its directory: it exists only while
    a run writes or after one was killed, and it holds every point that run
    had, reused ones included.  So it is read in place of the two JSON
    files whenever it holds anything; otherwise each file is ``None`` when
    missing (unless ``required``), as :func:`load_artifact_json` reads it.
    """
    directory = Path(directory)
    checkpoint = directory / CHECKPOINT_JSONL
    if checkpoint.exists():
        pair = read_checkpoint(checkpoint)
        if pair is not None:
            return pair[0], pair[1], True
    results = load_artifact_json(directory / RESULTS_JSON, required=required)
    manifest = load_artifact_json(directory / MANIFEST_JSON, required=required)
    return results, manifest, False


@dataclass
class ArtifactDir:
    """One artifact directory, read and checked by :func:`read_artifact_dir`.

    The one in-memory copy of a directory's contents: merge
    (:func:`repro.sweep.merge.merge_shards`), ``store ingest`` and the fleet
    take this object rather than re-reading the path.
    """

    directory: Path
    manifest: Dict[str, object]
    #: The campaign the manifest describes, checked against its own hash.
    spec: CampaignSpec
    #: The point indices a shard block declares (None when unsharded).
    declared_points: Optional[FrozenSet[int]]
    #: The decoded records in file order, each with its wall time attached.
    #: A point shares its payload dicts with the parsed JSON.
    points: List[PointResult]
    #: ``execution.point_wall_seconds`` by point index.
    walls: Dict[int, float]
    #: The checked ``execution.telemetry`` block (None when the manifest has
    #: none: a checkpoint, or a manifest older than always-on telemetry).
    telemetry: Optional[Dict[str, object]]
    #: Read from a killed run's ``checkpoint.jsonl`` rather than its JSON files.
    from_checkpoint: bool = False

    @property
    def spec_hash(self) -> str:
        return str(self.manifest["spec_hash"])

    @property
    def results_path(self) -> Path:
        """The file the records were read from."""
        return self.directory / (CHECKPOINT_JSONL if self.from_checkpoint else RESULTS_JSON)

    @property
    def points_total(self) -> int:
        """Size of the full grid these artifacts are a slice of."""
        return self.spec.n_points

    @property
    def merged_from(self) -> List[str]:
        """The source directories a merge's ``execution.merged_from`` names
        (empty for anything but a merge)."""
        execution = self.manifest.get("execution")
        sources = execution.get("merged_from") if isinstance(execution, dict) else None
        if not isinstance(sources, list):
            return []
        return [str(entry.get("directory", "")) for entry in sources if isinstance(entry, dict)]

    @property
    def kind(self) -> str:
        """``shard`` (a shard block), ``partial`` (a partial merge's
        ``partial`` block), ``merged`` (a complete merge) or ``full``: the
        blocks :func:`manifest_payload` stamps."""
        if isinstance(self.manifest.get("shard"), dict):
            return "shard"
        if isinstance(self.manifest.get("partial"), dict):
            return "partial"
        return "merged" if self.merged_from else "full"

    @property
    def shard_label(self) -> str:
        """Human label for diagnostics: ``dir (shard I/N)`` or just ``dir``."""
        shard = self.manifest.get("shard")
        if isinstance(shard, dict):
            return f"{self.directory} (shard {shard.get('index')}/{shard.get('count')})"
        return str(self.directory)


def _is_number(value: object) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def point_walls(manifest: Mapping[str, object], source: str) -> Dict[int, float]:
    """The manifest's ``execution.point_wall_seconds``, parsed once into
    ``index -> seconds``.  An absent block is empty; a non-numeric entry is
    damage and raises :class:`ResumeError`."""
    execution = manifest.get("execution")
    walls = execution.get("point_wall_seconds") if isinstance(execution, dict) else None
    if walls is None:
        return {}
    if not isinstance(walls, dict):
        raise ResumeError(f"{source}: point_wall_seconds is not a mapping — the manifest is corrupt")
    parsed: Dict[int, float] = {}
    for key, value in walls.items():
        if not _is_number(value) or not key.isdigit():
            raise ResumeError(
                f"{source}: point_wall_seconds entry {key!r}: {value!r} is not numeric — "
                f"the manifest is corrupt"
            )
        parsed[int(key)] = float(value)
    return parsed


def manifest_telemetry(manifest: Mapping[str, object], source: str) -> Optional[Dict[str, object]]:
    """The manifest's ``execution.telemetry`` block, checked so that
    :func:`~repro.obs.metrics.fold_telemetry` can fold it as it is: a
    ``profile`` of numeric phase seconds and ``metrics`` whose counters are
    integers and whose histograms are count/sum/min/max summaries.  An
    absent block is None; a malformed one is damage and raises
    :class:`ResumeError`."""
    execution = manifest.get("execution")
    if not isinstance(execution, dict) or "telemetry" not in execution:
        return None
    block = execution["telemetry"]
    where = f"{source}: execution.telemetry"
    corrupt = "the manifest is corrupt"
    if not isinstance(block, dict) or not isinstance(block.get("profile"), dict):
        raise ResumeError(f"{where} has no profile mapping — {corrupt}")
    metrics = block.get("metrics")
    counters = metrics.get("counter", {}) if isinstance(metrics, dict) else None
    histograms = metrics.get("histogram", {}) if isinstance(metrics, dict) else None
    if not isinstance(counters, dict) or not isinstance(histograms, dict):
        raise ResumeError(f"{where} has no counter/histogram metrics mapping — {corrupt}")
    for phase, seconds in block["profile"].items():
        if not _is_number(seconds):
            raise ResumeError(f"{where}: profile phase {phase!r}: {seconds!r} is not numeric — {corrupt}")
    for name, value in counters.items():
        # type() rather than isinstance(): a bool is not a count.
        if type(value) is not int:
            raise ResumeError(f"{where}: counter {name!r}: {value!r} is not an integer — {corrupt}")
    for name, summary in histograms.items():
        if not (
            isinstance(summary, dict)
            and type(summary.get("count")) is int
            and (summary["count"] == 0 or all(_is_number(summary.get(key)) for key in ("sum", "min", "max")))
        ):
            raise ResumeError(f"{where}: histogram {name!r}: {summary!r} is not a count/sum/min/max — {corrupt}")
    return block


def _declared_points(manifest: Mapping[str, object], spec: CampaignSpec, source: str) -> Optional[FrozenSet[int]]:
    """The point indices a ``shard`` block declares (None when unsharded),
    once the block's ``points_total`` (or a ``partial`` salvage's) is
    checked against the spec's grid.  A block lists its index set as
    ``runs``; older blocks declare one ``start``/``stop`` range.  An
    unsharded run covers the whole grid even when its ``n_points`` falls
    short: points that failed or were interrupted are simply missing."""
    shard = manifest.get("shard")
    partial = manifest.get("partial")
    declared = None
    if isinstance(shard, dict):
        where = f"{source}: shard block"
        total = _int_field(shard, "points_total", where)
        runs = shard["runs"] if "runs" in shard else [[shard.get("start"), shard.get("stop")]]
        if not isinstance(runs, list):
            raise ResumeError(f"{where}: runs {runs!r} is not a list")
        declared = set()
        for run in runs:
            # type() rather than isinstance(): a bool is not an index.
            if not isinstance(run, list) or len(run) != 2 or any(type(edge) is not int for edge in run):
                raise ResumeError(f"{where}: run {run!r} is not a [start, stop] pair of integers")
            start, stop = run
            if not 0 <= start <= stop <= total:
                raise ResumeError(f"{where}: declared index range [{start}, {stop}) is outside [0, {total})")
            declared.update(range(start, stop))
        declared = frozenset(declared)
    elif isinstance(partial, dict):
        total = _int_field(partial, "points_total", f"{source}: partial block")
    else:
        total = spec.n_points
    if total != spec.n_points:
        raise ResumeError(
            f"{source}: the manifest says the campaign has {total} points, but its "
            f"campaign block expands to {spec.n_points}"
        )
    return declared


def parse_artifact_dir(
    directory: Path, results: Dict[str, object], manifest: Dict[str, object], from_checkpoint: bool = False
) -> ArtifactDir:
    """Check one directory's parsed ``results.json``/``manifest.json`` pair,
    or the pair its checkpoint stands for, and decode each record once (see
    :func:`read_artifact_dir`)."""
    directory = Path(directory)
    if from_checkpoint:
        results_path = manifest_path = str(directory / CHECKPOINT_JSONL)
    else:
        results_path, manifest_path = str(directory / RESULTS_JSON), str(directory / MANIFEST_JSON)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ResumeError(
            f"{manifest_path}: artifact schema version {manifest.get('schema_version')!r} "
            f"!= {SCHEMA_VERSION} — re-run the campaign with this version of the code"
        )
    stored_hash = manifest.get("spec_hash")
    if not stored_hash:
        raise ResumeError(
            f"{manifest_path}: manifest has no spec_hash (written before resume "
            f"support) — re-run the campaign"
        )
    try:
        spec = spec_from_manifest(manifest)
    except ValueError as exc:
        raise ResumeError(f"{manifest_path}: {exc}") from None
    if spec_hash(spec) != stored_hash:
        raise ResumeError(
            f"{manifest_path}: manifest spec_hash {stored_hash} does not match its own "
            f"campaign block (recomputed {spec_hash(spec)}) — the manifest was edited "
            f"or corrupted"
        )
    if results.get("campaign") != spec.name or results.get("scenario") != spec.scenario:
        raise ResumeError(
            f"{results_path}: results are for campaign {results.get('campaign')!r} / "
            f"scenario {results.get('scenario')!r} but the manifest describes "
            f"{spec.name!r} / {spec.scenario!r} — the artifact pair is inconsistent"
        )
    declared = _declared_points(manifest, spec, manifest_path)
    allowed = declared if declared is not None else range(spec.n_points)
    records = results.get("points")
    if not isinstance(records, list):
        raise ResumeError(f"{results_path}: has no points list")
    walls = point_walls(manifest, manifest_path)
    telemetry = manifest_telemetry(manifest, manifest_path)
    points = []
    seen = set()
    for record in records:
        point = point_from_record(record, results_path)
        if point.index not in allowed:
            raise ResumeError(f"{results_path}: record index {point.index} is outside the declared points")
        if point.index in seen:
            raise ResumeError(f"{results_path}: duplicate record for point {point.index}")
        seen.add(point.index)
        point.wall_seconds = walls.get(point.index, 0.0)
        points.append(point)
    return ArtifactDir(directory, manifest, spec, declared, points, walls, telemetry, from_checkpoint)


def read_artifact_dir(directory: Path) -> ArtifactDir:
    """Read one artifact directory (a full run, a shard slice, a merge, a
    partial salvage or a killed run's checkpoint) and check everything one
    directory can be checked for.

    Both JSON files must parse; the schema version must match and a
    ``spec_hash`` be present; the manifest's campaign block must rebuild a
    spec that hashes to it; ``results.json`` must name the same campaign and
    scenario; a ``shard`` or ``partial`` block's ``points_total`` must match
    the spec's grid (:func:`_declared_points`); every record must decode
    (:func:`point_from_record`) with an index in range, inside any declared
    shard index set, and not duplicated; the walls must be numeric; and a
    telemetry block must be well formed (:func:`manifest_telemetry`).  A
    checkpoint goes through the same checks (:func:`load_artifact_pair`).
    Every failure raises :class:`ResumeError` naming the file.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ResumeError(
            f"{directory}: not a directory — pass the campaign or shard artifact "
            f"directory (the one that directly contains {RESULTS_JSON})"
        )
    return parse_artifact_dir(directory, *load_artifact_pair(directory, required=True))


def read_campaign_artifacts(directory: Path, spec: CampaignSpec) -> Optional[ArtifactDir]:
    """What one directory holds of campaign ``spec``, read like
    :func:`read_artifact_dir`; the reader behind ``--resume`` and the
    fleet's timing scavenger.

    ``None`` means there is nothing of this campaign to read: the directory
    is missing or lacks one of the two files (and holds no checkpoint), or
    its ``spec_hash`` names another campaign.  Damage raises
    :class:`ResumeError` as the full reader does.
    """
    directory = Path(directory)
    results, manifest, from_checkpoint = load_artifact_pair(directory)
    if results is None or manifest is None or manifest.get("spec_hash") != spec_hash(spec):
        return None
    return parse_artifact_dir(directory, results, manifest, from_checkpoint)
