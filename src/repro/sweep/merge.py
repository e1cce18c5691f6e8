"""Resume-aware merging of sharded campaign artifacts.

A campaign distributed with ``--shard I/N`` leaves one artifact directory
per host, each holding the shard's ``results.json``/``results.csv``/
``manifest.json`` slice.  :func:`merge_shards` stitches those slices back
into the single-host artifacts:

* it takes what the one artifact reader,
  :func:`repro.sweep.artifacts.read_artifact_dir`, returned: each
  :class:`~repro.sweep.artifacts.ArtifactDir` already holds its decoded
  points, so nothing is read twice.  :func:`load_shard_dir` is the
  path-to-``ArtifactDir`` gate (a reader failure becomes a
  :class:`MergeError` there); the ``sweep merge`` CLI and the fleet's
  acceptance gate (:func:`validate_shard_dir`) both read through it.  Any
  artifact directory of the campaign is a valid input: a shard slice, a
  full or merged run, or a fleet's ``partial/`` salvage;
* all directories must carry the **same** ``spec_hash`` — the
  campaign-identity digest ``--resume`` validates;
* the records must cover the full grid **exactly once** — duplicates across
  directories and missing points are each diagnosed with the offending
  indices and directories named.  Coverage is a set of point indices, and
  declared index sets may overlap as long as the records do not: a shard
  that lost points to a failure and the heal shard that re-ran exactly
  those points both declare the same indices, and that pair must merge;
* records are re-sorted into row-major point order and written through the
  same serialisers as a local run, so the merged
  ``results.json``/``results.csv`` are **byte-identical** to a single-host
  ``--jobs 1`` execution of the campaign (``tests/sweep/test_merge.py`` and
  the ``sweep-distributed`` CI job both ``cmp`` this).

The merged ``manifest.json`` comes from the same writer as a local run's
(:func:`repro.sweep.artifacts.manifest_payload`).  It carries the campaign
block, the ``spec_hash``, the sources as ``execution.merged_from``, point
counts equal to the summed ``sweep.points{…}`` counters, and the per-point
wall timings aggregated from the shards — which makes the
merged directory a first-class ``--resume`` source: any later run of the
same campaign, *including a re-cut to a different shard count*, reuses every
merged point instead of recomputing it.

CLI front end::

    python -m repro.run sweep merge <shard-dir>... [--out results/sweeps]

where each ``<shard-dir>`` is one shard's campaign directory (the directory
that directly contains ``results.json`` and ``manifest.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import fold_telemetry
from repro.obs.traceio import merge_trace_documents, validate_trace_file, write_trace
from repro.sweep.artifacts import SCHEMA_VERSION, ArtifactDir, read_artifact_dir, shard_dirname, write_artifacts
from repro.sweep.campaign import CampaignSpec, batch_groups, cut_shards, estimate_costs, expand_campaign, index_runs
from repro.sweep.execute import CampaignResult, PointResult
from repro.sweep.resume import ResumeError, spec_hash


class MergeError(ValueError):
    """A shard set that must not be merged (mismatched campaigns, overlapping
    or incomplete coverage, unreadable artifacts).  The message always names
    the offending directories and indices."""


class IncompleteCoverageError(MergeError):
    """Missing point indices — the one merge failure that is *healable* by
    re-running shards.  Carries the validated campaign identity and the gap
    so :func:`plan_heal` can emit the exact re-run commands."""

    def __init__(
        self,
        message: str,
        spec: CampaignSpec,
        points_total: int,
        missing: List[int],
        shards: Sequence[ArtifactDir],
    ) -> None:
        super().__init__(message)
        self.spec = spec
        self.points_total = points_total
        self.missing = missing
        self.shards = list(shards)


@dataclass
class MergedCampaign:
    """The validated, re-assembled single-host view of a shard set."""

    spec: CampaignSpec
    result: CampaignResult
    sources: List[ArtifactDir]

    @property
    def missing(self) -> List[int]:
        """Point indices absent from every source (non-empty only under
        ``merge_shards(..., allow_missing=True)`` — a **partial** merge).  A
        partial merge's artifacts carry a ``partial`` manifest block and
        must never masquerade as the complete campaign."""
        return self.result.missing


def load_shard_dir(directory: Path) -> ArtifactDir:
    """Read one directory through the artifact reader; a damaged artifact
    becomes a :class:`MergeError` here, at merge's boundary."""
    try:
        return read_artifact_dir(directory)
    except ResumeError as exc:
        raise MergeError(str(exc)) from None


def _summarise(indices: Sequence[int], limit: int = 12) -> str:
    shown = ", ".join(str(index) for index in sorted(indices)[:limit])
    extra = len(indices) - limit
    return shown + (f", … ({extra} more)" if extra > 0 else "")


def _validate_identity(shards: Sequence[ArtifactDir]) -> CampaignSpec:
    """All shards must describe the same campaign; return its spec."""
    reference = shards[0]
    if any(shard.spec_hash != reference.spec_hash for shard in shards):
        raise MergeError(
            "shards disagree on the campaign identity (spec_hash):\n"
            + "\n".join(f"  {shard.shard_label}: {shard.spec_hash}" for shard in shards)
            + "\nall shards must come from the same campaign definition"
        )
    return reference.spec


def _collect_points(shards: Sequence[ArtifactDir]) -> Dict[int, Tuple[PointResult, ArtifactDir]]:
    """Index every point across the shards, diagnosing duplicates (the
    reader has already checked each directory's own indices)."""
    owners: Dict[int, Tuple[PointResult, ArtifactDir]] = {}
    for shard in shards:
        duplicates: List[int] = []
        for point in shard.points:
            if point.index in owners:
                duplicates.append(point.index)
                continue
            owners[point.index] = (point, shard)
        if duplicates:
            others = sorted({owners[index][1].shard_label for index in duplicates})
            raise MergeError(
                f"duplicate point record(s) {_summarise(duplicates)}: present in "
                f"{shard.shard_label} and in {', '.join(others)} — overlapping "
                f"shards, or the same shard directory was passed twice"
            )
    return owners


def validate_shard_dir(directory: Path, spec: CampaignSpec) -> ArtifactDir:
    """Load one shard directory and validate it against campaign ``spec``.

    The fleet's acceptance gate: every worker's artifact directory goes
    through this **regardless of how the worker exited** — a timeout-killed
    worker that flushed valid artifacts first is accepted, a zero-exit
    worker with a truncated or malformed ``results.json`` is not.  It is the
    artifact reader (every record decoded, indices inside the declared
    range) plus one check: the ``spec_hash`` must match *this* campaign, not
    merely be self-consistent.  Raises :class:`MergeError` naming the
    problem; cross-shard properties (duplicates between shards, full
    coverage) remain :func:`merge_shards`' job.
    """
    artifacts = load_shard_dir(directory)
    expected = spec_hash(spec)
    if artifacts.spec_hash != expected:
        raise MergeError(
            f"{directory}: artifacts belong to a different campaign definition "
            f"(spec_hash {artifacts.spec_hash}, expected {expected})"
        )
    return artifacts


def merge_shards(shards: Sequence[ArtifactDir], allow_missing: bool = False) -> MergedCampaign:
    """Validate and merge shard artifacts, as :func:`load_shard_dir` read
    them, into one campaign result.

    Raises :class:`MergeError` (with the offending directories and point
    indices named) instead of ever writing artifacts from an inconsistent
    shard set.  ``allow_missing=True`` downgrades exactly one failure —
    incomplete coverage — into a **partial** merge carrying the gap in
    ``MergedCampaign.missing``; every other inconsistency (identity
    mismatch, overlap, duplicates, malformed records) still raises.  That is
    the fleet's graceful-degradation path: on retry-budget exhaustion it
    salvages every completed point into partial artifacts rather than losing
    them.
    """
    if not shards:
        raise MergeError("nothing to merge: pass at least one shard directory")
    spec = _validate_identity(shards)
    points_total = spec.n_points
    owners = _collect_points(shards)

    missing = sorted(set(range(points_total)) - set(owners))
    if missing and not allow_missing:
        covered = []
        for shard in shards:
            declared = shard.declared_points
            covered.append(
                f"  {shard.shard_label}: "
                + (
                    "indices " + " ".join(f"[{start}, {stop})" for start, stop in index_runs(declared))
                    if declared is not None
                    else "unsharded"
                )
            )
        raise IncompleteCoverageError(
            f"incomplete coverage: {len(missing)} of {points_total} point(s) missing "
            f"({_summarise(missing)}); shards present:\n" + "\n".join(covered) + "\n"
            "run the missing shard(s) (sweep merge --heal emits the exact "
            "commands) or --resume the campaign to fill the gap",
            spec=spec,
            points_total=points_total,
            missing=missing,
            shards=shards,
        )

    points = [owners[index][0] for index in sorted(owners)]

    wall_seconds = 0.0
    for shard in shards:
        execution = shard.manifest.get("execution")
        if isinstance(execution, dict):
            try:
                wall_seconds += float(execution.get("wall_seconds", 0.0))
            except (TypeError, ValueError):
                pass

    result = CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        points=points,
        jobs=0,  # merged, not executed here; the manifest names the sources
        wall_seconds=wall_seconds,
        shard=None,
        points_total=points_total,
        # A shard whose manifest predates always-on telemetry contributes nothing.
        telemetry=fold_telemetry(shard.telemetry for shard in shards if shard.telemetry is not None),
        merged_from=[
            {
                "directory": str(shard.directory),
                "shard": dict(shard.manifest["shard"]) if isinstance(shard.manifest.get("shard"), dict) else None,
                "n_points": len(shard.points),
            }
            for shard in shards
        ],
        missing=missing,
    )
    return MergedCampaign(spec=spec, result=result, sources=shards)


def _shard_lane_label(shard: ArtifactDir) -> str:
    """The lane-prefix label a shard's trace gets in the merged document."""
    block = shard.manifest.get("shard")
    if isinstance(block, dict) and "index" in block and "count" in block:
        return f"shard-{block['index']}-of-{block['count']}"
    return shard.directory.name


def merge_shard_traces(merged: MergedCampaign) -> Optional[Dict[str, object]]:
    """Stitch the shards' trace files into one validated document.

    Each shard manifest that ran with ``--trace-out`` names its trace file
    in ``execution.telemetry.trace.file`` (relative to the shard
    directory).  Returns ``None`` when no shard carries a trace; raises
    :class:`MergeError` when a named trace file is missing or invalid —
    a shard that claims a trace must deliver it.
    """
    documents: List[Dict[str, object]] = []
    labels: List[str] = []
    for shard in merged.sources:
        trace = shard.telemetry.get("trace") if shard.telemetry else None
        if not isinstance(trace, dict) or not trace.get("file"):
            continue
        path = shard.directory / str(trace["file"])
        try:
            documents.append(validate_trace_file(path))
        except ValueError as exc:
            raise MergeError(f"{shard.shard_label}: {exc}") from None
        labels.append(_shard_lane_label(shard))
    if not documents:
        return None
    return merge_trace_documents(documents, labels)


HEAL_JSON = "heal.json"


def plan_heal(error: IncompleteCoverageError, out_dir: Path) -> Dict[str, object]:
    """Turn an incomplete-coverage failure into exact re-run commands.

    The missing points are regrouped into their batch groups and cut with
    the one cost cut (:func:`~repro.sweep.campaign.cut_groups`) into at most
    as many parts as the widest surviving shard set had shards, so a heal
    round runs as wide as the fleet that left the gap.  Each part becomes
    one explicit index-set shard (``i/k@START:STOP,…``): it re-runs exactly
    the missing points, never overlaps points other shards already carry,
    and never splits one group's missing points across two shards.  The
    returned payload is what ``sweep merge --heal`` prints and writes to
    ``<out>/<campaign>/heal.json``:

    * ``commands`` — one entry per re-run with the ``--shard`` spec, the full
      argv, and the artifact directory the run will produce;
    * ``merge_after`` — every directory (the surviving shards plus the new
      ones) to pass to the next ``sweep merge``.
    """
    spec = error.spec
    counts = [
        block["count"]
        for shard in error.shards
        for block in [shard.manifest.get("shard")]
        if isinstance(block, dict) and type(block.get("count")) is int
    ]
    points = expand_campaign(spec)
    groups = batch_groups([points[index] for index in error.missing])
    shard_specs = cut_shards(groups, estimate_costs(groups, {}), max(counts, default=1))

    out_dir = Path(out_dir)
    commands = []
    new_dirs = []
    for shard in shard_specs:
        argv = [
            "python",
            "-m",
            "repro.run",
            "sweep",
            spec.name,
            "--shard",
            str(shard),
            "--out",
            str(out_dir),
        ]
        artifact_dir = out_dir / spec.name / shard_dirname(shard)
        commands.append(
            {
                "shard": str(shard),
                "points": [index for start, stop in shard.runs for index in range(start, stop)],
                "argv": argv,
                "command": " ".join(argv),
                "artifact_dir": str(artifact_dir),
            }
        )
        new_dirs.append(str(artifact_dir))

    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": spec.name,
        "spec_hash": spec_hash(spec),
        "points_total": error.points_total,
        "missing": list(error.missing),
        "commands": commands,
        "merge_after": [str(shard.directory) for shard in error.shards] + new_dirs,
    }


def write_heal_plan(plan: Dict[str, object], out_dir: Path) -> Path:
    """Write ``plan`` to ``<out>/<campaign>/heal.json``; return the path."""
    heal_dir = Path(out_dir) / str(plan["campaign"])
    heal_dir.mkdir(parents=True, exist_ok=True)
    path = heal_dir / HEAL_JSON
    path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_merged_artifacts(
    merged: MergedCampaign, out_dir: Path, subdir: Optional[str] = None
) -> Dict[str, Path]:
    """Write the merged artifacts under ``out_dir / campaign [/ subdir]``
    through :func:`~repro.sweep.artifacts.write_artifacts`; return paths.

    ``results.json``/``results.csv`` are therefore byte-identical to a
    single-host execution, and the manifest carries ``merged_from`` (and a
    partial merge's ``partial`` block).  When any shard ran with
    ``--trace-out``, the shards' traces are first stitched into
    ``trace.json`` next to the merged artifacts (per-shard process lanes)
    and the merged manifest's telemetry block points at it.  ``subdir`` is
    how the fleet keeps a *partial* merge (``partial/``) from shadowing the
    campaign-level artifacts a later complete merge will write.
    """
    campaign_dir = Path(out_dir) / merged.spec.name
    if subdir is not None:
        campaign_dir = campaign_dir / subdir
    merged_trace = merge_shard_traces(merged)
    trace_path = None
    if merged_trace is not None:
        campaign_dir.mkdir(parents=True, exist_ok=True)
        trace_path = write_trace(campaign_dir / "trace.json", merged_trace)
        merged.result.telemetry["trace"] = {
            "file": trace_path.name,
            "events": sum(
                1 for event in merged_trace["traceEvents"] if event.get("ph") != "M"
            ),
            "dropped": merged_trace["metadata"]["dropped_events"],
        }
    paths = write_artifacts(merged.spec, merged.result, out_dir, subdir)
    if trace_path is not None:
        paths["trace_json"] = trace_path
    # A successful *complete* merge supersedes any heal plan a previous
    # failed attempt left here — a stale heal.json next to complete
    # artifacts would tell automation to re-run shards that are already
    # merged.  A partial merge keeps it: the heal plan is exactly the
    # hand-off describing how to finish the campaign later.
    if not merged.missing:
        (campaign_dir / HEAL_JSON).unlink(missing_ok=True)
    return paths
