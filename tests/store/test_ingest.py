"""Ingest semantics: validation, idempotent dedup, conflict rollback."""

import json
from dataclasses import replace

import pytest

from repro.store import (
    StoreError,
    campaign_points,
    connect,
    ingest_artifacts,
    ingest_directories,
    reconstruct_results_payload,
)
from repro.sweep.artifacts import point_record, read_artifact_dir, write_artifacts
from repro.sweep.campaign import CampaignSpec, ShardSpec
from repro.sweep.execute import execute_campaign
from repro.sweep.merge import load_shard_dir, merge_shards, write_merged_artifacts

SPEC = CampaignSpec(
    name="store-ingest-test",
    description="small store-ingest-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


def _fresh_artifacts(out_dir, spec=SPEC):
    """Run the campaign, write artifacts, return (paths, campaign_dir)."""
    result = execute_campaign(spec, jobs=1)
    paths = write_artifacts(spec, result, out_dir)
    return paths, out_dir / spec.name


def _shard_dirs(tmp_path, count):
    dirs = []
    for index in range(count):
        result = execute_campaign(SPEC, jobs=1, shard=ShardSpec(index=index, count=count))
        write_artifacts(SPEC, result, tmp_path / f"shard{index}")
        dirs.append(tmp_path / f"shard{index}" / SPEC.name)
    return dirs


def _ingest(conn, directory):
    """Read one directory and ingest what the reader returned."""
    return ingest_artifacts(conn, read_artifact_dir(directory))


@pytest.fixture()
def store(tmp_path):
    conn = connect(tmp_path / "store.sqlite")
    yield conn
    conn.close()


class TestIngest:
    def test_full_run_ingests_every_point(self, tmp_path, store):
        _, campaign_dir = _fresh_artifacts(tmp_path)
        report = _ingest(store, campaign_dir)
        assert report.ok
        assert report.kind == "full"
        assert report.campaign == SPEC.name
        assert report.inserted == 4
        assert report.deduplicated == 0
        assert report.conflicts == []

    def test_reingest_inserts_zero_rows(self, tmp_path, store):
        """The idempotency acceptance criterion: re-ingesting the same
        artifacts deduplicates everything and inserts nothing."""
        _, campaign_dir = _fresh_artifacts(tmp_path)
        _ingest(store, campaign_dir)
        again = _ingest(store, campaign_dir)
        assert again.ok
        assert again.inserted == 0
        assert again.deduplicated == 4

    def test_reconstruction_is_byte_identical(self, tmp_path, store):
        """Canonical-JSON column storage must reproduce the ingested
        results.json byte for byte."""
        paths, campaign_dir = _fresh_artifacts(tmp_path)
        _ingest(store, campaign_dir)
        payload = reconstruct_results_payload(store, SPEC.name)
        rebuilt = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert rebuilt == paths["results_json"].read_bytes()

    def test_stored_records_match_originals_exactly(self, tmp_path, store):
        paths, campaign_dir = _fresh_artifacts(tmp_path)
        _ingest(store, campaign_dir)
        original = json.loads(paths["results_json"].read_text())["points"]
        campaign_id = store.execute(
            "SELECT id FROM campaigns WHERE name = ?", (SPEC.name,)
        ).fetchone()["id"]
        assert [point_record(point) for point in campaign_points(store, campaign_id)] == original

    def test_missing_artifacts_are_an_error(self, tmp_path, store):
        with pytest.raises(StoreError, match=r"results\.json"):
            ingest_directories(store, [tmp_path / "nowhere"])

    def test_spec_hash_mismatch_is_rejected(self, tmp_path, store):
        # A manifest whose stored hash disagrees with its own campaign
        # block is tampered/corrupt — same rejection as sweep merge.
        paths, campaign_dir = _fresh_artifacts(tmp_path)
        manifest = json.loads(paths["manifest_json"].read_text())
        manifest["campaign"]["base_seed"] += 1
        paths["manifest_json"].write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="spec_hash"):
            ingest_directories(store, [campaign_dir])

    def test_wall_seconds_scavenged_from_manifest(self, tmp_path, store):
        _, campaign_dir = _fresh_artifacts(tmp_path)
        _ingest(store, campaign_dir)
        walls = [
            row["wall_seconds"]
            for row in store.execute("SELECT wall_seconds FROM points ORDER BY point_index")
        ]
        assert len(walls) == 4
        assert all(wall > 0 for wall in walls)


class TestConflicts:
    def test_conflict_rolls_back_whole_directory(self, tmp_path, store):
        """A colliding index with different content condemns the directory:
        nothing from it lands, and the conflicting indices are reported."""
        _, dir_a = _fresh_artifacts(tmp_path / "a")
        _ingest(store, dir_a)

        # Same campaign identity, different content at point 2.
        paths, dir_b = _fresh_artifacts(tmp_path / "b")
        payload = json.loads(paths["results_json"].read_text())
        payload["points"][2]["stats"]["samples_taken"] += 1
        paths["results_json"].write_text(json.dumps(payload))

        report = _ingest(store, dir_b)
        assert not report.ok
        assert report.inserted == 0
        assert [conflict["index"] for conflict in report.conflicts] == [2]
        # The store still holds exactly the first directory's rows.
        assert store.execute("SELECT COUNT(*) AS n FROM points").fetchone()["n"] == 4
        again = _ingest(store, dir_a)
        assert again.deduplicated == 4

    def test_conflicting_directory_does_not_block_others(self, tmp_path, store):
        _, dir_a = _fresh_artifacts(tmp_path / "a")
        other = replace(SPEC, name="store-ingest-test-b", base_seed=7)
        _, dir_other = _fresh_artifacts(tmp_path / "other", spec=other)
        _ingest(store, dir_a)

        paths, dir_bad = _fresh_artifacts(tmp_path / "bad")
        payload = json.loads(paths["results_json"].read_text())
        payload["points"][0]["stats"]["samples_taken"] += 1
        paths["results_json"].write_text(json.dumps(payload))

        report = ingest_directories(store, [dir_bad, dir_other])
        assert not report.ok
        assert report.conflicts == 1
        # The clean directory still ingested.
        assert report.inserted == 4


class TestShardAndMergedIngest:
    def test_shard_slices_and_merged_run_dedup_cleanly(self, tmp_path, store):
        """Shards overlap the merged campaign they produced; ingesting both
        must insert each point exactly once."""
        shard_dirs = _shard_dirs(tmp_path, 2)
        merged = merge_shards([load_shard_dir(directory) for directory in shard_dirs])
        write_merged_artifacts(merged, tmp_path / "merged")

        shard_report = ingest_directories(store, shard_dirs)
        assert shard_report.ok
        assert shard_report.inserted == 4
        assert [directory.kind for directory in shard_report.directories] == ["shard", "shard"]

        merged_report = _ingest(store, tmp_path / "merged" / SPEC.name)
        assert merged_report.ok
        assert merged_report.kind == "merged"
        assert merged_report.inserted == 0
        assert merged_report.deduplicated == 4

    def test_merged_provenance_lands_in_ingest_log(self, tmp_path, store):
        shard_dirs = _shard_dirs(tmp_path, 2)
        merged = merge_shards([load_shard_dir(directory) for directory in shard_dirs])
        write_merged_artifacts(merged, tmp_path / "merged")

        _ingest(store, tmp_path / "merged" / SPEC.name)
        row = store.execute("SELECT kind, merged_from FROM ingests").fetchone()
        assert row["kind"] == "merged"
        sources = json.loads(row["merged_from"])
        assert len(sources) == 2
