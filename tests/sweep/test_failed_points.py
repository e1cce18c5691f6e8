"""Per-point failure containment: a raising point must not poison the run.

One failing point is recorded as a structured ``failed_points`` entry (in
the chunk outcome, the campaign result, and the manifest's execution
block), every other point completes normally, the sweep CLI exits 1, and
the merge layer heals the failure exactly like a missing point.
"""

import json

import pytest

from repro.run import main
from repro.sweep.artifacts import write_artifacts
from repro.sweep.campaign import CampaignSpec, ShardSpec
from repro.sweep.campaigns import campaign as campaign_lookup
from repro.sweep.campaigns import register_campaign
from repro.sweep.execute import execute_campaign
from repro.sweep.merge import IncompleteCoverageError, load_shard_dir, merge_shards, plan_heal
from repro.workloads.registry import register_scenario, scenario

SCENARIO = "failing-point-test"
CAMPAIGN = "failing-point-test-campaign"
FAILING_INDEX = 2  # the detonate=2 point


def _ensure_registered() -> CampaignSpec:
    try:
        return campaign_lookup(CAMPAIGN)
    except KeyError:
        pass

    @register_scenario(
        SCENARIO,
        "delegates to always-on-monitor; raises for detonate=2",
        10_000,
        params=("detonate",),
    )
    def _run(horizon_cycles, dense, detonate=0):
        if int(detonate) == 2:
            raise RuntimeError(f"injected point failure (detonate={detonate})")
        return scenario("always-on-monitor").run(horizon_cycles, dense)

    return register_campaign(
        CampaignSpec(
            name=CAMPAIGN,
            description="4 points, one of which raises",
            scenario=SCENARIO,
            grid={"horizon_cycles": (10_000,), "detonate": (0, 1, 2, 3)},
        )
    )


@pytest.fixture(scope="module")
def spec() -> CampaignSpec:
    return _ensure_registered()


class TestFailureCapture:
    def test_serial_run_survives_and_records_the_failure(self, spec):
        result = execute_campaign(spec, jobs=1)
        assert result.n_failed == 1
        assert result.n_computed == spec.n_points - 1
        assert {r.index for r in result.points} == {0, 1, 3}
        (record,) = result.failed_points
        assert record["index"] == FAILING_INDEX
        assert record["label"] == f"{SCENARIO}#{FAILING_INDEX}"
        assert record["params"] == {"detonate": 2}
        assert record["error"].startswith("RuntimeError: injected point failure")
        assert "RuntimeError" in record["traceback"]

    def test_pool_run_is_not_poisoned(self, spec):
        # One failing pool task must not take down the pool or lose the
        # sibling tasks; the outcome matches the serial run exactly.
        result = execute_campaign(spec, jobs=2)
        assert result.n_failed == 1
        assert {r.index for r in result.points} == {0, 1, 3}
        assert result.failed_points[0]["index"] == FAILING_INDEX

    def test_manifest_records_failed_points(self, spec, tmp_path):
        result = execute_campaign(spec, jobs=1)
        paths = write_artifacts(spec, result, tmp_path)
        manifest = json.loads(paths["manifest_json"].read_text())
        (record,) = manifest["execution"]["failed_points"]
        assert record["index"] == FAILING_INDEX
        assert "traceback" in record
        results = json.loads(paths["results_json"].read_text())
        assert [r["index"] for r in results["points"]] == [0, 1, 3]

    def test_sweep_cli_exits_1_and_names_the_point(self, spec, tmp_path, capsys):
        code = main(["sweep", CAMPAIGN, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"failed point {SCENARIO}#{FAILING_INDEX}" in err
        assert "1 point(s) failed" in err


class TestFailureHealsAsMissingPoint:
    def test_merge_reports_the_failed_point_as_the_gap(self, spec, tmp_path):
        for shard_text in ("0/2", "1/2"):
            shard = ShardSpec.parse(shard_text)
            result = execute_campaign(spec, jobs=1, shard=shard)
            write_artifacts(spec, result, tmp_path, subdir=f"shard-{shard.index}-of-2")
        directories = [tmp_path / spec.name / f"shard-{i}-of-2" for i in range(2)]
        with pytest.raises(IncompleteCoverageError) as excinfo:
            merge_shards([load_shard_dir(directory) for directory in directories])
        gap = excinfo.value
        assert gap.missing == [FAILING_INDEX]
        plan = plan_heal(gap, tmp_path)
        assert plan["missing"] == [FAILING_INDEX]
        (command,) = plan["commands"]
        assert command["points"] == [FAILING_INDEX]

    def test_partial_merge_salvages_the_survivors(self, spec, tmp_path):
        for shard_text in ("0/2", "1/2"):
            shard = ShardSpec.parse(shard_text)
            result = execute_campaign(spec, jobs=1, shard=shard)
            write_artifacts(spec, result, tmp_path, subdir=f"shard-{shard.index}-of-2")
        directories = [tmp_path / spec.name / f"shard-{i}-of-2" for i in range(2)]
        merged = merge_shards([load_shard_dir(directory) for directory in directories], allow_missing=True)
        assert merged.missing == [FAILING_INDEX]
        assert {r.index for r in merged.result.points} == {0, 1, 3}
