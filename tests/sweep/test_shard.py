"""Multi-host sharding (--shard I/N): partitioning into whole batch groups,
artifacts, composition with --jobs/--resume."""

import json

import pytest

from repro.run import main
from repro.sweep.artifacts import results_payload, write_artifacts
from repro.sweep.campaign import CampaignSpec, ShardSpec, SweepPoint, batch_groups, expand_campaign
from repro.sweep.execute import execute_campaign
from repro.sweep.resume import load_reusable_results, spec_hash

SPEC = CampaignSpec(
    name="shard-test",
    description="small sharding-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


def _grid(n_points, groups=5):
    """A horizon-major grid like pipeline-clock-ratio's: every batch group
    is strided across the index range."""
    return [
        SweepPoint(
            index=index,
            campaign="shard-grid",
            scenario="duty-cycled-logging",
            horizon_cycles=1_000 * (1 + index // groups),
            dense=False,
            params={"sample_period_cycles": 1_000 * (1 + index % groups)},
        )
        for index in range(n_points)
    ]


class TestShardSpec:
    def test_parse_round_trips(self):
        shard = ShardSpec.parse("1/4")
        assert (shard.index, shard.count) == (1, 4)
        assert str(shard) == "1/4"

    @pytest.mark.parametrize("text", ["3", "1/", "/3", "a/b", "1/4/2", ""])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="I/N"):
            ShardSpec.parse(text)

    def test_index_must_be_in_range(self):
        with pytest.raises(ValueError, match="zero-based"):
            ShardSpec(index=3, count=3)
        with pytest.raises(ValueError, match="shard index"):
            ShardSpec(index=-1, count=3)
        with pytest.raises(ValueError, match="shard count"):
            ShardSpec(index=0, count=0)

    @pytest.mark.parametrize("n_points", [0, 1, 3, 4, 7, 24, 100])
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_partition_is_disjoint_and_complete(self, n_points, count):
        points = _grid(n_points)
        selected = [ShardSpec(index=index, count=count).select(points) for index in range(count)]
        covered = sorted(point.index for part in selected for point in part)
        assert covered == list(range(n_points))  # no gap, no overlap
        owner = {point.index: number for number, part in enumerate(selected) for point in part}
        for group in batch_groups(points):
            assert len({owner[point.index] for point in group}) == 1  # never split

    def test_partition_is_balanced(self):
        # Twelve groups of equal depth: three shards of four whole groups.
        points = _grid(36, groups=12)
        groups_per_shard = [len(batch_groups(ShardSpec(index=i, count=3).select(points))) for i in range(3)]
        assert groups_per_shard == [4, 4, 4]

    def test_select_returns_the_contiguous_slice(self):
        # A balanced shard selects whole groups (SPEC is horizon-major, so
        # its groups are {0, 2} and {1, 3}); an explicit one its index set.
        points = expand_campaign(SPEC)
        selected = ShardSpec(index=1, count=2).select(points)
        assert [point.index for point in selected] == [1, 3]
        explicit = ShardSpec.parse("0/1@0:1,2:4").select(points)
        assert [point.index for point in explicit] == [0, 2, 3]
        with pytest.raises(ValueError, match="only 4 points"):
            ShardSpec.parse("0/1@2:5").select(points)

    def test_more_shards_than_points_leaves_empty_shards(self):
        points = expand_campaign(SPEC)  # 4 points
        sizes = [len(ShardSpec(index=i, count=6).select(points)) for i in range(6)]
        assert sum(sizes) == 4
        assert 0 in sizes


class TestShardedExecution:
    def test_shards_union_to_the_serial_run(self):
        serial = execute_campaign(SPEC, jobs=1)
        shard_records = [
            record
            for index in range(3)
            for record in results_payload(
                execute_campaign(SPEC, shard=ShardSpec(index=index, count=3))
            )["points"]
        ]
        shard_records.sort(key=lambda record: record["index"])
        assert shard_records == results_payload(serial)["points"]

    def test_shard_composes_with_jobs_and_chunk(self):
        shard = ShardSpec(index=0, count=2)
        reference = execute_campaign(SPEC, shard=shard)
        pooled = execute_campaign(SPEC, jobs=2, shard=shard)
        assert results_payload(pooled) == results_payload(reference)

    def test_progress_total_is_shard_local(self):
        seen = []
        execute_campaign(
            SPEC,
            shard=ShardSpec(index=0, count=2),
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_shard_result_records_the_slice(self):
        result = execute_campaign(SPEC, shard=ShardSpec(index=1, count=2))
        # The balanced shard is recorded as the index set it resolved to.
        assert result.shard == ShardSpec(index=1, count=2, runs=((1, 2), (3, 4)))
        assert result.points_total == 4
        assert result.n_points == 2

    def test_unsharded_result_has_no_shard(self):
        result = execute_campaign(SPEC, jobs=1)
        assert result.shard is None
        assert result.points_total == 4


class TestShardedArtifacts:
    def test_artifacts_carry_shard_block_and_spec_hash(self, tmp_path):
        result = execute_campaign(SPEC, shard=ShardSpec(index=1, count=3))
        paths = write_artifacts(SPEC, result, tmp_path)
        results = json.loads(paths["results_json"].read_text())
        manifest = json.loads(paths["manifest_json"].read_text())
        expected_shard = {"index": 1, "count": 3, "runs": [[1, 2], [3, 4]], "points_total": 4}
        assert results["shard"] == expected_shard
        assert results["n_points"] == 2
        assert [record["index"] for record in results["points"]] == [1, 3]
        assert manifest["shard"] == expected_shard
        assert manifest["spec_hash"] == spec_hash(SPEC)
        assert manifest["execution"]["computed_points"] == 2
        assert manifest["execution"]["reused_points"] == 0

    def test_unsharded_artifacts_have_no_shard_block(self, tmp_path):
        result = execute_campaign(SPEC, jobs=1)
        paths = write_artifacts(SPEC, result, tmp_path)
        assert "shard" not in json.loads(paths["results_json"].read_text())
        assert "shard" not in json.loads(paths["manifest_json"].read_text())


class TestShardedResume:
    def test_shard_reuses_points_from_a_full_run(self, tmp_path):
        full = execute_campaign(SPEC, jobs=1)
        write_artifacts(SPEC, full, tmp_path)
        reuse = load_reusable_results(SPEC, tmp_path)
        resumed = execute_campaign(SPEC, shard=ShardSpec(index=0, count=2), reuse=reuse)
        assert resumed.n_points == 2
        assert resumed.n_reused == 2
        assert resumed.n_computed == 0

    def test_reuse_outside_the_shard_is_ignored(self, tmp_path):
        full = execute_campaign(SPEC, jobs=1)
        write_artifacts(SPEC, full, tmp_path)
        reuse = load_reusable_results(SPEC, tmp_path)
        # Hand the executor only the records the *other* shard owns.
        other_only = {index: reuse[index] for index in (1, 3)}
        result = execute_campaign(SPEC, shard=ShardSpec(index=0, count=2), reuse=other_only)
        assert result.n_reused == 0
        assert [point.index for point in result.points] == [0, 2]

    def test_shard_artifacts_resume_the_same_shard(self, tmp_path):
        shard = ShardSpec(index=1, count=2)
        first = execute_campaign(SPEC, shard=shard)
        paths = write_artifacts(SPEC, first, tmp_path)
        reuse = load_reusable_results(SPEC, tmp_path)
        assert sorted(reuse) == [1, 3]
        resumed = execute_campaign(SPEC, shard=shard, reuse=reuse)
        assert resumed.n_reused == 2
        repaths = write_artifacts(SPEC, resumed, tmp_path / "again")
        assert repaths["results_json"].read_bytes() == paths["results_json"].read_bytes()
        assert repaths["results_csv"].read_bytes() == paths["results_csv"].read_bytes()


class TestShardCli:
    def test_shard_runs_and_stamps_artifacts(self, capsys, tmp_path):
        assert main(["sweep", "smoke", "--shard", "0/2", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "shard 0/2: 2 of 4 points" in captured.err
        # Shard slices nest under the campaign dir so they never clobber
        # campaign-level (full or merged) artifacts.
        shard_dir = tmp_path / "smoke" / "shard-0-of-2"
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        assert manifest["shard"]["index"] == 0
        assert manifest["shard"]["count"] == 2
        assert not (tmp_path / "smoke" / "manifest.json").exists()

    def test_shard_rerun_resumes_its_own_slice(self, capsys, tmp_path):
        assert main(["sweep", "smoke", "--shard", "0/2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "smoke", "--shard", "0/2", "--resume", "--out", str(tmp_path)]) == 0
        assert "reusing 2/2" in capsys.readouterr().err
        manifest = json.loads(
            (tmp_path / "smoke" / "shard-0-of-2" / "manifest.json").read_text()
        )
        assert manifest["execution"]["reused_points"] == 2
        assert manifest["execution"]["computed_points"] == 0

    def test_malformed_shard_is_a_cli_error(self, capsys):
        assert main(["sweep", "smoke", "--shard", "2"]) == 2
        assert "I/N" in capsys.readouterr().err

    def test_out_of_range_shard_is_a_cli_error(self, capsys):
        assert main(["sweep", "smoke", "--shard", "2/2"]) == 2
        assert "zero-based" in capsys.readouterr().err

    def test_dry_run_lists_only_the_shard(self, capsys, tmp_path):
        assert main(["sweep", "smoke", "--shard", "1/2", "--dry-run", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2 = 2 of 4 points" in out
        assert "point   1" in out and "point   3" in out
        assert "point   0" not in out
        assert not (tmp_path / "smoke").exists()


class TestEmptyShards:
    """Regression: --shard I/N with N > batch groups must yield valid, empty,
    mergeable artifacts (a fleet cut wider than the campaign is legal).
    SPEC has two groups, so shards 2..5 of 6 are empty."""

    def test_empty_shard_executes_to_zero_points(self):
        result = execute_campaign(SPEC, shard=ShardSpec(index=5, count=6))
        assert result.n_points == 0
        assert result.points_total == 4
        assert result.n_reused == result.n_computed == 0

    def test_empty_shard_writes_valid_artifacts(self, tmp_path):
        result = execute_campaign(SPEC, shard=ShardSpec(index=5, count=6))
        paths = write_artifacts(SPEC, result, tmp_path, subdir="shard-5-of-6")
        results = json.loads(paths["results_json"].read_text())
        assert results["n_points"] == 0
        assert results["points"] == []
        assert results["shard"] == {"index": 5, "count": 6, "runs": [], "points_total": 4}
        manifest = json.loads(paths["manifest_json"].read_text())
        assert manifest["n_points"] == 0
        assert manifest["spec_hash"] == spec_hash(SPEC)
        # Header-only CSV: still parseable, still schema-stable.
        assert paths["results_csv"].read_text().startswith("index,scenario,horizon_cycles,seed")

    def test_overwide_fleet_merges_byte_identical(self, tmp_path):
        """6-way cut of a two-group grid: four shards are empty; the merge
        must accept them (even listed first) and reproduce the serial bytes."""
        from repro.sweep.merge import load_shard_dir, merge_shards, write_merged_artifacts

        directories = []
        for index in range(6):
            shard = ShardSpec(index=index, count=6)
            result = execute_campaign(SPEC, shard=shard)
            paths = write_artifacts(SPEC, result, tmp_path, subdir=f"shard-{index}-of-6")
            directories.append(paths["results_json"].parent)
        points = expand_campaign(SPEC)
        empties = [
            directory
            for index, directory in enumerate(directories)
            if not ShardSpec(index=index, count=6).select(points)
        ]
        assert len(empties) == 4  # the premise: the cut really over-shards
        reordered = empties + [d for d in directories if d not in empties]
        merged = merge_shards([load_shard_dir(directory) for directory in reordered])
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        serial = execute_campaign(SPEC, jobs=1)
        serial_paths = write_artifacts(SPEC, serial, tmp_path / "serial")
        for key in ("results_json", "results_csv"):
            assert merged_paths[key].read_bytes() == serial_paths[key].read_bytes()

    def test_empty_shard_cli_round_trip(self, capsys, tmp_path):
        assert main(["sweep", "smoke", "--shard", "5/6", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "shard 5/6: 0 of 4 points" in captured.err
        assert "0 points" in captured.out
        shard_dir = tmp_path / "smoke" / "shard-5-of-6"
        for name in ("results.json", "results.csv", "manifest.json"):
            assert (shard_dir / name).exists()
        # An empty shard resumes (vacuously) without touching anything.
        assert main(["sweep", "smoke", "--shard", "5/6", "--resume", "--out", str(tmp_path)]) == 0
