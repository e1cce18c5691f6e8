"""Incremental re-execution: recover finished points from prior artifacts.

A sweep campaign's ``results.json`` is deterministic and keyed by point
index, and its ``manifest.json`` records the full campaign spec.  That makes
resumption trivial to do safely:

* :func:`spec_hash` canonicalises the campaign portion of the manifest
  (name, scenario, grid, seeds, kernel, schema version) into a sha256 — the
  identity of "the same campaign";
* :func:`load_reusable_results` reads a previous run's artifacts from the
  campaign's output directory and returns its per-point records **only** if
  the stored spec hash matches the current spec.  A renamed grid axis, a new
  value, a different base seed, or a schema bump all change the hash and
  force a clean re-run — a stale cache can never masquerade as fresh data.

Recovered records re-enter :func:`repro.sweep.execute.execute_campaign`
through its ``reuse`` parameter; because every record is a pure function of
its point, a resumed run's ``results.json``/``results.csv`` are byte-identical
to a from-scratch run (pinned by ``tests/sweep/test_resume.py``).  Wall-clock
timings of reused points are carried over from the previous manifest so the
new manifest stays fully populated.

Any artifact set that carries a matching ``spec_hash`` is a valid resume
source — a plain previous run, a single shard's artifacts (its records are
simply a subset), or a **merged** multi-host run written by
:mod:`repro.sweep.merge`.  That last case is what makes a fleet re-cuttable:
resume a ``--shard I/N`` run from a merged ``results.json`` and every point
of the new shard that was finished anywhere in the old fleet is reused.

:func:`spec_from_manifest` is the inverse of the manifest's campaign block:
it reconstructs the :class:`~repro.sweep.campaign.CampaignSpec` a manifest
was written from, which is how ``sweep merge`` revalidates shard artifacts
without consulting the campaign registry (the campaign may not be registered
on the merging host at all).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.sweep.campaign import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep.execute import PointResult


class ResumeError(ValueError):
    """Artifacts that *claim* to be resumable but cannot be trusted: a
    ``results.json``/``manifest.json`` that exists but is truncated, is not
    valid JSON, is not the expected shape, or carries records that
    contradict the manifest's own ``spec_hash``.  The message always names
    the offending path and what failed to parse.

    This is deliberately distinct from the two silent no-resume cases —
    missing artifacts and a ``spec_hash`` for a *different* campaign — which
    simply mean "nothing to reuse, run everything".  Damaged artifacts must
    be surfaced (the CLI exits 2) rather than silently recomputing the
    campaign on top of what may be a disk or truncation problem; the fleet
    orchestrator reuses the same validation when scavenging past timings and
    degrades by skipping the damaged directory with a ledger note.
    """


def load_artifact_json(path: Path, *, required: bool = False) -> Optional[Dict[str, object]]:
    """Parse one artifact JSON file into its top-level object.

    Returns ``None`` when the file does not exist (unless ``required``);
    raises :class:`ResumeError` naming the path and the failure for
    unreadable, unparseable, or non-object payloads — one shared gate for
    ``--resume``, the fleet's shard validation, and its timing scavenger.
    """
    path = Path(path)
    if not path.exists():
        if required:
            raise ResumeError(f"{path}: missing")
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ResumeError(f"{path}: unreadable: {exc}") from None
    except ValueError as exc:
        raise ResumeError(f"{path}: invalid JSON (truncated or corrupt): {exc}") from None
    if not isinstance(payload, dict):
        raise ResumeError(f"{path}: expected a JSON object at the top level, got {type(payload).__name__}")
    return payload


def campaign_identity(spec: CampaignSpec) -> Dict[str, object]:
    """The canonical campaign-identity payload hashed by :func:`spec_hash`."""
    from repro.sweep.artifacts import SCHEMA_VERSION

    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "scenario": spec.scenario,
        "grid": {axis: list(values) for axis, values in spec.grid.items()},
        "base_seed": spec.base_seed,
        "dense": spec.dense,
    }


def spec_hash(spec: CampaignSpec) -> str:
    """Stable sha256 of the campaign identity (axis order included: it fixes
    the point enumeration, so reordering axes renumbers every point)."""
    canonical = json.dumps(campaign_identity(spec), sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_from_manifest(manifest: Mapping[str, object]) -> CampaignSpec:
    """Reconstruct the :class:`CampaignSpec` a manifest's campaign block
    describes.

    Raises ``ValueError`` when the manifest has no well-formed campaign
    block.  The reconstruction is exact for every identity field (name,
    scenario, grid with axis order, base seed, kernel), so
    ``spec_hash(spec_from_manifest(m)) == m["spec_hash"]`` for any manifest
    this code base wrote — :mod:`repro.sweep.merge` asserts exactly that
    before trusting a shard directory.
    """
    campaign = manifest.get("campaign")
    if not isinstance(campaign, Mapping):
        raise ValueError("manifest has no campaign block")
    grid = campaign.get("grid")
    if not isinstance(grid, Mapping):
        raise ValueError("manifest campaign block has no grid mapping")
    # The manifest is serialised with sorted keys, so the stored grid mapping
    # has lost the axis order that fixes the row-major point numbering; the
    # explicit axis_order list restores it.  (Without it, fall back to the
    # stored order — the caller's spec-hash check catches any mismatch.)
    axis_order = campaign.get("axis_order", list(grid))
    if not isinstance(axis_order, (list, tuple)) or sorted(axis_order) != sorted(grid):
        raise ValueError(
            f"manifest axis_order {axis_order!r} does not name the grid axes {sorted(grid)}"
        )
    try:
        return CampaignSpec(
            name=str(campaign["name"]),
            description=str(campaign.get("description", "")),
            scenario=str(campaign["scenario"]),
            grid={axis: tuple(grid[axis]) for axis in axis_order},
            base_seed=int(campaign["base_seed"]),
            dense=bool(campaign["dense"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest campaign block is malformed: {exc!r}") from None


def load_reusable_results(
    spec: CampaignSpec, out_dir: Path, subdir: Optional[str] = None
) -> Dict[int, "PointResult"]:
    """Per-point results of a previous run of ``spec``, keyed by index.

    ``subdir`` reads a nested artifact directory instead of the campaign
    root — the CLI uses it to resume a shard from its own
    ``<campaign>/shard-I-of-N/`` slice in addition to any campaign-level
    (full or merged) artifacts.

    Returns an empty mapping when there is genuinely nothing to resume from:
    missing artifacts, a manifest without a spec hash (pre-resume schema), or
    a spec hash that does not match the current campaign definition (a
    *different* campaign's artifacts are not damage).  Artifacts that exist
    but cannot be trusted raise :class:`ResumeError` instead: everything
    :func:`repro.sweep.artifacts.read_artifact_dir` rejects, plus a record
    that contradicts the *current* expansion of the campaign
    (:func:`reusable_point`).  Silently recomputing on top of a half-written
    results.json would mask a disk or truncation problem, so the damage is
    named and surfaced (the CLI exits 2).
    """
    from repro.sweep.artifacts import read_campaign_artifacts
    from repro.sweep.campaign import expand_campaign

    campaign_dir = Path(out_dir) / spec.name
    if subdir is not None:
        campaign_dir = campaign_dir / subdir
    artifacts = read_campaign_artifacts(campaign_dir, spec)
    if artifacts is None:
        return {}
    points_by_index = {point.index: point for point in expand_campaign(spec)}
    source = str(artifacts.results_path)
    return {
        point.index: reusable_point(point, spec, points_by_index, source=source)
        for point in artifacts.points
    }


def reusable_point(
    point: "PointResult",
    spec: CampaignSpec,
    points_by_index: Mapping[int, object],
    *,
    source: str,
) -> "PointResult":
    """Check one decoded point against the campaign's current expansion and
    mark it reused.

    The one expansion check for *every* resume source — a previous run's
    ``results.json`` and the results store both go through here, so the two
    paths cannot drift.  The point's identity fields (scenario, horizon,
    params, seed) must match the expansion's point at that index exactly;
    the spec hash covers the ``CampaignSpec`` fields, but expansion also
    depends on registry state (the scenario's default horizon, the
    seed-injection rule), so a matching hash alone is not enough.  Raises
    :class:`ResumeError` naming ``source`` for a point that contradicts the
    expansion.
    """
    expected = points_by_index.get(point.index)
    if (
        expected is None
        or point.scenario != expected.scenario
        or point.horizon_cycles != expected.horizon_cycles
        or point.params != dict(expected.params)
        or point.seed != expected.seed
    ):
        raise ResumeError(
            f"{source}: point record {point.index!r} disagrees "
            f"with the current expansion of campaign {spec.name!r} "
            f"(scenario/horizon/params/seed mismatch) — the artifacts were "
            f"edited or the registry changed; delete them or rerun without "
            f"--resume"
        )
    point.reused = True
    return point
