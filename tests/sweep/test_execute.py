"""Execution + artifact tests: sharding determinism and the differential check
against single-scenario runs."""

import json

import pytest

from repro.sweep.artifacts import (
    MANIFEST_JSON,
    RESULTS_CSV,
    RESULTS_JSON,
    manifest_payload,
    results_payload,
    write_artifacts,
)
from repro.sweep import execute
from repro.sweep.campaign import CampaignSpec, batch_groups, expand_campaign
from repro.sweep.campaigns import campaign
from repro.sweep.execute import execute_campaign, run_point, run_point_groups
from repro.workloads.registry import run_scenario

SMALL_SPEC = CampaignSpec(
    name="exec-test",
    description="small execution-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


class TestRunPoint:
    def test_stats_match_single_scenario_run(self):
        """Differential: the sweep worker must not perturb the scenario."""
        for point in expand_campaign(SMALL_SPEC):
            result = run_point(point)
            direct = run_scenario(
                point.scenario,
                horizon_cycles=point.horizon_cycles,
                dense=point.dense,
                params=point.params,
            )
            assert result.stats == direct

    def test_seeded_point_matches_single_scenario_run(self):
        spec = CampaignSpec(
            name="exec-test-wdt",
            description="seeded watchdog points",
            scenario="watchdog-recovery",
            grid={"horizon_cycles": (200_000,)},
        )
        (point,) = expand_campaign(spec)
        result = run_point(point)
        direct = run_scenario("watchdog-recovery", 200_000, params={"seed": point.seed})
        assert result.stats == direct

    def test_power_area_and_activity_are_populated(self):
        point = expand_campaign(SMALL_SPEC)[0]
        result = run_point(point)
        assert result.power_uw["Total"] > 0
        assert set(result.power_uw) >= {"Processor", "RAM", "Interconnect", "PELS", "Others", "Leakage"}
        assert result.area_kge["Total"] > 0
        assert result.activity["ibex.sleep_cycles"] == point.horizon_cycles

    def test_pels_less_point_has_no_area(self):
        spec = CampaignSpec(
            name="exec-test-ibex",
            description="ibex idle point",
            scenario="figure5-idle",
            grid={"horizon_cycles": (50_000,), "mode": ("ibex",), "frequency_mhz": (55.0,)},
        )
        (point,) = expand_campaign(spec)
        result = run_point(point)
        assert result.area_kge == {}
        assert result.power_uw["PELS"] == 0.0


class TestShardingDeterminism:
    def test_serial_and_sharded_results_are_identical(self):
        serial = execute_campaign(SMALL_SPEC, jobs=1)
        sharded = execute_campaign(SMALL_SPEC, jobs=2)
        assert results_payload(serial) == results_payload(sharded)

    def test_task_count_never_changes_results(self, monkeypatch):
        serial = execute_campaign(SMALL_SPEC, jobs=1)
        for cores in (1, 2, 3):
            monkeypatch.setattr(execute.os, "cpu_count", lambda: cores)
            pooled = execute_campaign(SMALL_SPEC, jobs=3)
            assert results_payload(pooled) == results_payload(serial)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_tasks_are_whole_groups(self, jobs, monkeypatch):
        spec = CampaignSpec(
            name="exec-test-tasks",
            description="horizon-major grid: every group is strided",
            scenario="duty-cycled-logging",
            grid={"horizon_cycles": (20_000, 30_000), "sample_period_cycles": (1_000, 2_000, 3_000, 4_000, 5_000)},
        )
        tasks = []

        def recording_task(groups, **options):
            tasks.append([[point.index for point in group] for group in groups])
            return run_point_groups(groups, **options)

        class InlinePool:
            """The pool's task stream, run in this process so it is recorded."""

            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, function, items):
                return map(function, items)

        monkeypatch.setattr(execute.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(execute, "run_point_groups", recording_task)
        monkeypatch.setattr(execute.multiprocessing, "Pool", InlinePool)
        groups = [[point.index for point in group] for group in batch_groups(expand_campaign(spec))]
        result = execute_campaign(spec, jobs=jobs)
        assert result.n_points == spec.n_points
        if jobs == 1:
            assert tasks == [groups]  # serial: exactly one task holding every group
        else:
            # 5 groups, 4 tasks per worker: one whole group per task.
            assert sorted(tasks) == sorted([group] for group in groups)

    def test_progress_reports_every_point(self):
        seen = []
        execute_campaign(SMALL_SPEC, jobs=1, progress=lambda done, total, result: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            execute_campaign(SMALL_SPEC, jobs=0)


class TestAcceptanceCampaign:
    def test_24_point_campaign_sharded_matches_serial_bytes(self, tmp_path):
        """Acceptance: a >=24-point campaign sharded across >=2 processes writes
        JSON+CSV+manifest, and its aggregated artifacts are byte-identical to
        the serial run."""
        spec = campaign("watchdog-fault-injection")
        assert spec.n_points >= 24

        serial = execute_campaign(spec, jobs=1)
        sharded = execute_campaign(spec, jobs=2)
        serial_paths = write_artifacts(spec, serial, tmp_path / "serial")
        sharded_paths = write_artifacts(spec, sharded, tmp_path / "sharded")

        for key in ("results_json", "results_csv"):
            assert serial_paths[key].read_bytes() == sharded_paths[key].read_bytes()
        for paths in (serial_paths, sharded_paths):
            assert paths["manifest_json"].exists()

        # The fault-injection sweep's headline result: every seeded stall is
        # recovered autonomously, the bite never fires.
        for point in sharded.points:
            assert point.stats["recovered"] is True
            assert point.stats["watchdog_bites"] == 0


class TestArtifacts:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("sweeps")
        result = execute_campaign(SMALL_SPEC, jobs=1)
        paths = write_artifacts(SMALL_SPEC, result, out_dir)
        return result, paths, out_dir

    def test_files_land_under_campaign_directory(self, written):
        _, paths, out_dir = written
        assert paths["results_json"] == out_dir / SMALL_SPEC.name / RESULTS_JSON
        assert paths["results_csv"] == out_dir / SMALL_SPEC.name / RESULTS_CSV
        assert paths["manifest_json"] == out_dir / SMALL_SPEC.name / MANIFEST_JSON
        for path in paths.values():
            assert path.exists()

    def test_results_json_round_trips(self, written):
        result, paths, _ = written
        payload = json.loads(paths["results_json"].read_text())
        assert payload == results_payload(result)
        assert payload["n_points"] == 4
        assert [point["index"] for point in payload["points"]] == [0, 1, 2, 3]
        first = payload["points"][0]
        assert first["params"] == {"sample_period_cycles": 2_000}
        assert first["stats"]["horizon_cycles"] == 40_000
        assert first["power_uw"]["Total"] > 0
        assert first["activity"]["ibex.sleep_cycles"] == 40_000

    def test_csv_has_one_row_per_point_with_namespaced_columns(self, written):
        _, paths, _ = written
        lines = paths["results_csv"].read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        header = lines[0].split(",")
        assert header[:4] == ["index", "scenario", "horizon_cycles", "seed"]
        assert "param.sample_period_cycles" in header
        assert "stat.words_logged" in header
        assert "power_uw.Total" in header
        assert "area_kge.Total" in header

    def test_manifest_records_reproducibility_and_timing(self, written):
        result, paths, _ = written
        manifest = json.loads(paths["manifest_json"].read_text())
        assert manifest == manifest_payload(SMALL_SPEC, result)
        assert manifest["campaign"]["scenario"] == "duty-cycled-logging"
        assert manifest["campaign"]["grid"]["sample_period_cycles"] == [2_000, 4_000]
        assert manifest["campaign"]["base_seed"] == SMALL_SPEC.base_seed
        assert manifest["execution"]["jobs"] == 1
        assert len(manifest["execution"]["point_wall_seconds"]) == 4

    def test_timing_is_kept_out_of_comparable_payloads(self, written):
        result, paths, _ = written
        assert "wall" not in paths["results_json"].read_text()
        assert "wall" not in paths["results_csv"].read_text()
