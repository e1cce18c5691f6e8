"""Resume-aware artifact merging: byte-identity with a single-host run,
manifest validation, and the merged-artifacts-as-resume-source property."""

import json

import pytest

from repro.run import main
from repro.sweep.artifacts import write_artifacts
from repro.sweep.campaign import CampaignSpec, ShardSpec
from repro.sweep.execute import execute_campaign
from repro.sweep.merge import (
    MergeError,
    load_shard_dir,
    merge_shards,
    write_merged_artifacts,
)
from repro.sweep.resume import load_reusable_results, spec_hash

SPEC = CampaignSpec(
    name="merge-test",
    description="small merge-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


def _serial_artifacts(tmp_path):
    result = execute_campaign(SPEC, jobs=1)
    return write_artifacts(SPEC, result, tmp_path / "serial")


def _read(directories):
    """Read each directory through merge's path gate, as ``sweep merge`` does."""
    return [load_shard_dir(directory) for directory in directories]


def _shard_dirs(tmp_path, count, spec=SPEC):
    dirs = []
    for index in range(count):
        result = execute_campaign(spec, shard=ShardSpec(index=index, count=count))
        write_artifacts(spec, result, tmp_path / f"shard{index}")
        dirs.append(tmp_path / f"shard{index}" / spec.name)
    return dirs


class TestMergeByteIdentity:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_merged_artifacts_match_serial_bytes(self, tmp_path, count):
        """The acceptance criterion: any shard count merges back to the
        byte-exact single-host --jobs 1 artifacts."""
        serial_paths = _serial_artifacts(tmp_path)
        merged = merge_shards(_read(_shard_dirs(tmp_path, count)))
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        for key in ("results_json", "results_csv"):
            assert merged_paths[key].read_bytes() == serial_paths[key].read_bytes()

    def test_more_shards_than_points_still_merges(self, tmp_path):
        serial_paths = _serial_artifacts(tmp_path)
        merged = merge_shards(_read(_shard_dirs(tmp_path, 6)))  # 4 points, 2 empty shards
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        for key in ("results_json", "results_csv"):
            assert merged_paths[key].read_bytes() == serial_paths[key].read_bytes()

    def test_shard_order_does_not_matter(self, tmp_path):
        serial_paths = _serial_artifacts(tmp_path)
        dirs = _shard_dirs(tmp_path, 3)
        merged = merge_shards(_read([dirs[2], dirs[0], dirs[1]]))
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        assert merged_paths["results_json"].read_bytes() == serial_paths["results_json"].read_bytes()

    def test_merging_an_unsharded_run_is_the_identity(self, tmp_path):
        serial_paths = _serial_artifacts(tmp_path)
        merged = merge_shards(_read([tmp_path / "serial" / SPEC.name]))
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        for key in ("results_json", "results_csv"):
            assert merged_paths[key].read_bytes() == serial_paths[key].read_bytes()


class TestAxisOrderRoundTrip:
    """Axis order is campaign identity (it numbers the points), but the
    manifest is serialised with sorted keys — the explicit axis_order field
    must restore it.  Regression: a campaign whose axes are not already in
    alphabetical order used to fail the merge's spec-hash round-trip."""

    REORDERED = CampaignSpec(
        name="merge-reorder-test",
        description="axes deliberately not in alphabetical order",
        scenario="duty-cycled-logging",
        grid={
            "sample_period_cycles": (2_000, 4_000),  # 's' before 'h': non-alphabetical
            "horizon_cycles": (40_000, 60_000),
        },
    )

    def test_spec_round_trips_through_the_manifest(self, tmp_path):
        from repro.sweep.resume import spec_from_manifest

        result = execute_campaign(self.REORDERED, jobs=1)
        paths = write_artifacts(self.REORDERED, result, tmp_path)
        manifest = json.loads(paths["manifest_json"].read_text())
        rebuilt = spec_from_manifest(manifest)
        assert list(rebuilt.grid) == ["sample_period_cycles", "horizon_cycles"]
        assert spec_hash(rebuilt) == spec_hash(self.REORDERED) == manifest["spec_hash"]

    def test_non_alphabetical_campaign_merges_byte_identically(self, tmp_path):
        serial = execute_campaign(self.REORDERED, jobs=1)
        serial_paths = write_artifacts(self.REORDERED, serial, tmp_path / "serial")
        merged = merge_shards(_read(_shard_dirs(tmp_path, 2, spec=self.REORDERED)))
        merged_paths = write_merged_artifacts(merged, tmp_path / "merged")
        for key in ("results_json", "results_csv"):
            assert merged_paths[key].read_bytes() == serial_paths[key].read_bytes()

    def test_inconsistent_axis_order_is_refused(self, tmp_path):
        (dir0,) = _shard_dirs(tmp_path, 1, spec=self.REORDERED)
        manifest = json.loads((dir0 / "manifest.json").read_text())
        manifest["campaign"]["axis_order"] = ["horizon_cycles"]  # drops an axis
        (dir0 / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MergeError, match="axis_order"):
            merge_shards(_read([dir0]))


class TestMergedManifest:
    def test_manifest_is_a_resume_source_with_every_point_reused(self, tmp_path):
        """The resume-aware half of the tentpole: a merged results.json is a
        valid --resume source and reuses every point."""
        merged = merge_shards(_read(_shard_dirs(tmp_path, 3)))
        write_merged_artifacts(merged, tmp_path / "merged")
        reuse = load_reusable_results(SPEC, tmp_path / "merged")
        assert sorted(reuse) == [0, 1, 2, 3]
        resumed = execute_campaign(SPEC, jobs=1, reuse=reuse)
        assert resumed.n_reused == 4
        assert resumed.n_computed == 0

    def test_recutting_to_a_different_shard_count_reuses_everything(self, tmp_path):
        merged = merge_shards(_read(_shard_dirs(tmp_path, 3)))
        write_merged_artifacts(merged, tmp_path / "merged")
        reuse = load_reusable_results(SPEC, tmp_path / "merged")
        for index in range(2):  # re-cut the fleet from 3 shards to 2
            shard = ShardSpec(index=index, count=2)
            resumed = execute_campaign(SPEC, shard=shard, reuse=reuse)
            assert resumed.n_reused == resumed.n_points
            assert resumed.n_computed == 0

    def test_manifest_records_sources_and_spec_hash(self, tmp_path):
        dirs = _shard_dirs(tmp_path, 2)
        merged = merge_shards(_read(dirs))
        paths = write_merged_artifacts(merged, tmp_path / "merged")
        manifest = json.loads(paths["manifest_json"].read_text())
        assert manifest["spec_hash"] == spec_hash(SPEC)
        assert manifest["n_points"] == 4
        sources = manifest["execution"]["merged_from"]
        assert [source["shard"]["index"] for source in sources] == [0, 1]
        assert manifest["execution"]["point_wall_seconds"].keys() == {"0", "1", "2", "3"}
        assert manifest["execution"]["jobs"] is None

    def test_counts_are_the_merged_point_counters(self, tmp_path):
        # One shard computes its points, the other reuses them from a
        # previous run: the merged counts add up the shards' own counts.
        dirs = _shard_dirs(tmp_path, 2)
        reuse = load_reusable_results(SPEC, tmp_path / "shard1")
        resumed = execute_campaign(SPEC, shard=ShardSpec(index=1, count=2), reuse=reuse)
        write_artifacts(SPEC, resumed, tmp_path / "resumed")
        merge_argv = ["sweep", "merge", str(dirs[0]), str(tmp_path / "resumed" / SPEC.name)]
        assert main(merge_argv + ["--out", str(tmp_path / "merged")]) == 0
        manifest_path = tmp_path / "merged" / SPEC.name / "manifest.json"
        execution = json.loads(manifest_path.read_text())["execution"]
        counters = execution["telemetry"]["metrics"]["counter"]
        for kind in ("reused", "computed", "batched"):
            assert execution[f"{kind}_points"] == counters[f"sweep.points{{kind={kind}}}"], kind
        assert (execution["reused_points"], execution["computed_points"]) == (2, 2)

    def test_wall_timings_are_carried_over_from_the_shards(self, tmp_path):
        dirs = _shard_dirs(tmp_path, 2)
        shard_walls = {}
        for directory in dirs:
            manifest = json.loads((directory / "manifest.json").read_text())
            shard_walls.update(manifest["execution"]["point_wall_seconds"])
        merged = merge_shards(_read(dirs))
        paths = write_merged_artifacts(merged, tmp_path / "merged")
        manifest = json.loads(paths["manifest_json"].read_text())
        assert manifest["execution"]["point_wall_seconds"] == shard_walls


class TestMergeValidation:
    def test_mismatched_spec_hash_is_refused(self, tmp_path):
        dirs = _shard_dirs(tmp_path, 2)
        other = CampaignSpec(
            name=SPEC.name,  # same name, different identity
            description=SPEC.description,
            scenario=SPEC.scenario,
            grid=dict(SPEC.grid),
            base_seed=SPEC.base_seed + 1,
        )
        result = execute_campaign(other, shard=ShardSpec(index=1, count=2))
        write_artifacts(other, result, tmp_path / "alien")
        with pytest.raises(MergeError, match="spec_hash"):
            merge_shards(_read([dirs[0], tmp_path / "alien" / other.name]))

    def test_overlapping_shards_are_refused(self, tmp_path):
        dirs = []
        for index, text in enumerate(("0/2@0:2", "1/2@1:4")):  # overlap at point 1
            result = execute_campaign(SPEC, shard=ShardSpec.parse(text))
            write_artifacts(SPEC, result, tmp_path / f"shard{index}")
            dirs.append(tmp_path / f"shard{index}" / SPEC.name)
        with pytest.raises(MergeError, match="overlapping"):
            merge_shards(_read(dirs))

    def test_same_directory_twice_is_refused(self, tmp_path):
        dirs = _shard_dirs(tmp_path, 2)
        with pytest.raises(MergeError, match="overlapping|duplicate"):
            merge_shards(_read([dirs[0], dirs[0], dirs[1]]))

    def test_incomplete_coverage_names_missing_indices(self, tmp_path):
        dirs = _shard_dirs(tmp_path, 3)
        with pytest.raises(MergeError, match=r"incomplete coverage.*missing"):
            merge_shards(_read([dirs[0], dirs[2]]))
        try:
            merge_shards(_read([dirs[0], dirs[2]]))
        except MergeError as exc:
            message = str(exc)
        # shard 1/3 of SPEC's two groups owns the group {1, 3}
        assert "(1, 3)" in message
        assert "shard 0/3" in message and "shard 2/3" in message

    def test_missing_artifacts_are_refused_with_a_hint(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MergeError, match="results.json"):
            merge_shards(_read([empty]))
        with pytest.raises(MergeError, match="not a directory"):
            merge_shards(_read([tmp_path / "nope"]))

    def test_nothing_to_merge_is_an_error(self):
        with pytest.raises(MergeError, match="at least one"):
            merge_shards([])

    def test_corrupt_json_is_refused(self, tmp_path):
        (dir0,) = _shard_dirs(tmp_path, 1)
        (dir0 / "results.json").write_text("{not json")
        with pytest.raises(MergeError, match="invalid JSON"):
            merge_shards(_read([dir0]))

    def test_edited_manifest_hash_mismatch_is_refused(self, tmp_path):
        (dir0,) = _shard_dirs(tmp_path, 1)
        manifest = json.loads((dir0 / "manifest.json").read_text())
        manifest["campaign"]["base_seed"] += 1  # hash no longer matches block
        (dir0 / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MergeError, match="edited or corrupted"):
            merge_shards(_read([dir0]))

    def test_load_shard_dir_round_trips(self, tmp_path):
        (dir0,) = _shard_dirs(tmp_path, 1)
        artifacts = load_shard_dir(dir0)
        assert artifacts.spec.name == SPEC.name
        assert artifacts.spec_hash == spec_hash(SPEC)
        assert artifacts.points_total == 4


class TestMergeCli:
    def test_cli_merges_and_prints_sources(self, capsys, tmp_path):
        shard_dirs = []
        for index in range(2):
            assert main(["sweep", "smoke", "--shard", f"{index}/2", "--out", str(tmp_path)]) == 0
            shard_dirs.append(str(tmp_path / "smoke" / f"shard-{index}-of-2"))
        assert (
            main(["sweep", "merge", *shard_dirs, "--out", str(tmp_path / "merged")]) == 0
        )
        out = capsys.readouterr().out
        assert "merged campaign smoke: 4 points" in out
        assert (tmp_path / "merged" / "smoke" / "results.json").exists()
        # the merged dir is a valid --resume source through the CLI, too
        assert (
            main(["sweep", "smoke", "--resume", "--out", str(tmp_path / "merged")]) == 0
        )
        manifest = json.loads((tmp_path / "merged" / "smoke" / "manifest.json").read_text())
        assert manifest["execution"]["reused_points"] == 4
        assert manifest["execution"]["computed_points"] == 0

    def test_in_place_recut_does_not_clobber_merged_artifacts(self, capsys, tmp_path):
        """Regression: re-cutting a fleet directly against the merged
        directory must reuse every point AND leave the campaign-level
        merged artifacts byte-identical — a shard run used to overwrite
        <out>/<campaign>/ with its own slice."""
        for index in range(3):
            assert main(["sweep", "smoke", "--shard", f"{index}/3", "--out", str(tmp_path)]) == 0
        shard_dirs = [str(tmp_path / "smoke" / f"shard-{index}-of-3") for index in range(3)]
        assert main(["sweep", "merge", *shard_dirs, "--out", str(tmp_path / "merged")]) == 0
        merged_results = tmp_path / "merged" / "smoke" / "results.json"
        before = merged_results.read_bytes()
        for index in range(2):  # re-cut 3 -> 2 shards, in place
            assert (
                main(
                    [
                        "sweep",
                        "smoke",
                        "--shard",
                        f"{index}/2",
                        "--resume",
                        "--out",
                        str(tmp_path / "merged"),
                    ]
                )
                == 0
            )
            manifest = json.loads(
                (tmp_path / "merged" / "smoke" / f"shard-{index}-of-2" / "manifest.json").read_text()
            )
            assert manifest["execution"]["computed_points"] == 0
            assert manifest["execution"]["reused_points"] == 2
        assert merged_results.read_bytes() == before

    def test_cli_merge_error_is_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["sweep", "merge", str(empty)]) == 2
        assert "results.json" in capsys.readouterr().err
