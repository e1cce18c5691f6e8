"""repro.sweep — parameterized scenario sweeps over the event-driven kernel.

A **campaign** (:class:`~repro.sweep.campaign.CampaignSpec`) crosses one
scenario from :mod:`repro.workloads.registry` with a parameter grid —
horizons, clock ratios, duty cycles, fault-injection seeds.  The executor
(:func:`~repro.sweep.execute.execute_campaign`) groups the expanded run
matrix so points differing only in their horizon share one simulation
(byte-identical to the solo reference,
:func:`~repro.sweep.execute.run_point`) and shards the groups across a
process pool with deterministic per-point seeding; the artifacts layer (:func:`~repro.sweep.artifacts.write_artifacts`) aggregates
each point's stats, activity counters, and power/area model outputs into
structured JSON + CSV under ``results/sweeps/``, with a campaign manifest
for reproducibility.

CLI front end: ``python -m repro.run sweep <campaign> [--jobs N] [--resume]
[--shard I/N]``.  One cost-balanced cut of whole batch groups
(:func:`~repro.sweep.campaign.cut_groups`) sizes the pool's tasks and the
shards; ``--resume`` reuses points already present in ``results.json``
under an identical campaign manifest (:mod:`repro.sweep.resume`), and
``--shard I/N`` executes part ``I`` of that cut into ``N`` for multi-host
distribution — the per-host artifact
directories merge back into the single-host artifacts with
``python -m repro.run sweep merge <dir>...`` (:mod:`repro.sweep.merge`).
Every run records its telemetry (:mod:`repro.obs`) into the manifest, and
``--trace-out`` adds a Chrome trace file, without perturbing the result
artifacts; ``python -m repro.run stats <dir>`` renders it back.
Full documentation: ``docs/sweeps.md`` and ``docs/observability.md``.
"""

from repro.sweep.artifacts import (
    SCHEMA_VERSION,
    ArtifactDir,
    Checkpoint,
    manifest_payload,
    point_from_record,
    point_record,
    read_artifact_dir,
    results_payload,
    shard_dirname,
    write_artifacts,
)
from repro.sweep.campaign import (
    CampaignSpec,
    ShardSpec,
    SweepPoint,
    batch_groups,
    cut_groups,
    derive_point_seed,
    expand_campaign,
    grid_from_lists,
)
from repro.sweep.campaigns import (
    campaign,
    campaign_names,
    campaigns,
    register_campaign,
)
from repro.sweep.execute import (
    CampaignResult,
    PointResult,
    execute_campaign,
    run_point,
    run_point_groups,
)
from repro.sweep.merge import (
    HEAL_JSON,
    IncompleteCoverageError,
    MergedCampaign,
    MergeError,
    load_shard_dir,
    merge_shard_traces,
    merge_shards,
    plan_heal,
    validate_shard_dir,
    write_heal_plan,
    write_merged_artifacts,
)
from repro.sweep.resume import (
    ResumeError,
    load_artifact_json,
    load_reusable_results,
    reusable_point,
    spec_from_manifest,
    spec_hash,
)

__all__ = [
    "ArtifactDir",
    "CampaignResult",
    "CampaignSpec",
    "Checkpoint",
    "HEAL_JSON",
    "IncompleteCoverageError",
    "MergeError",
    "MergedCampaign",
    "PointResult",
    "ResumeError",
    "SCHEMA_VERSION",
    "ShardSpec",
    "SweepPoint",
    "batch_groups",
    "campaign",
    "campaign_names",
    "campaigns",
    "cut_groups",
    "derive_point_seed",
    "execute_campaign",
    "expand_campaign",
    "grid_from_lists",
    "load_artifact_json",
    "load_reusable_results",
    "load_shard_dir",
    "manifest_payload",
    "merge_shard_traces",
    "merge_shards",
    "plan_heal",
    "point_from_record",
    "point_record",
    "read_artifact_dir",
    "register_campaign",
    "results_payload",
    "reusable_point",
    "run_point",
    "run_point_groups",
    "shard_dirname",
    "spec_from_manifest",
    "spec_hash",
    "validate_shard_dir",
    "write_artifacts",
    "write_heal_plan",
    "write_merged_artifacts",
]
