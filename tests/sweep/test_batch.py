"""Batched sweep execution (--batch): grouping, byte-identity, composition.

The acceptance oracle of the batched executor is byte-identity: for every
registry campaign, ``--batch`` artifacts must equal the per-instance
``--jobs 1`` artifacts bit for bit.  Groups that cannot batch (no batch-prepare hook, or heterogeneous derived
drives) must fall back with the reason recorded in the manifest, and
batching must compose with ``--jobs``/``--chunk``/``--shard``/``--resume``.
"""

import json

import pytest

from repro.run import main
from repro.sweep import (
    CampaignSpec,
    ShardSpec,
    batch_groups,
    campaign,
    campaign_names,
    execute_campaign,
    expand_campaign,
    load_reusable_results,
    register_campaign,
    results_payload,
    write_artifacts,
)
from repro.sweep.artifacts import manifest_payload
from repro.workloads.registry import scenario

SMALL_SPEC = CampaignSpec(
    name="batch-test",
    description="small batchable campaign for the --batch tests",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _payload_bytes(result):
    return json.dumps(results_payload(result), indent=2, sort_keys=True)


def _non_batchable_campaign():
    """A campaign over a scenario without a batch-prepare hook (registered
    lazily so it does not leak into the registry-campaign parametrisation)."""
    name = "monitor-non-batchable-test"
    try:
        return campaign(name)
    except KeyError:
        assert scenario("always-on-monitor").batch_prepare is None
        return register_campaign(
            CampaignSpec(
                name=name,
                description="always-on-monitor has no batch hook: fallback test",
                scenario="always-on-monitor",
                grid={"horizon_cycles": (10_000, 20_000)},
            )
        )


class TestBatchGroups:
    def test_points_group_by_params_across_horizons(self):
        points = expand_campaign(SMALL_SPEC)
        groups = batch_groups(points)
        assert len(groups) == 2  # one group per sample_period value
        for group in groups:
            assert len(group) == 2
            assert len({point.params["sample_period_cycles"] for point in group}) == 1
            horizons = [point.horizon_cycles for point in group]
            assert horizons == sorted(horizons) == [20_000, 40_000]

    def test_distinct_params_stay_separate(self):
        points = expand_campaign(campaign("pipeline-clock-ratio"))
        groups = batch_groups(points)
        assert len(groups) == 8  # 4 ratios x 2 periods; 7 horizons merge
        assert all(len(group) == 7 for group in groups)
        assert sum(len(group) for group in groups) == len(points)


@pytest.fixture(scope="module")
def serial_campaign():
    """Per-instance reference results, computed once per registry campaign."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = execute_campaign(campaign(name), jobs=1, batch=False)
        return cache[name]

    return get


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(campaign_names()))
    def test_every_registry_campaign_is_batch_identical(self, name, tmp_path, serial_campaign):
        """The acceptance criterion: batched == per-instance, bit for bit,
        for results.json *and* results.csv of every registry campaign."""
        spec = campaign(name)
        serial = serial_campaign(name)
        batched = execute_campaign(spec, jobs=1, batch=True)
        assert _payload_bytes(serial) == _payload_bytes(batched)
        serial_paths = write_artifacts(spec, serial, tmp_path / "serial")
        batched_paths = write_artifacts(spec, batched, tmp_path / "batched")
        for key in ("results_json", "results_csv"):
            assert serial_paths[key].read_bytes() == batched_paths[key].read_bytes()

    def test_batchable_scenarios_report_batched_points(self):
        batched = execute_campaign(SMALL_SPEC, jobs=1, batch=True)
        assert batched.batched_points == batched.n_points == 4
        assert batched.batch_fallbacks == []

    def test_watchdog_recovery_batches(self):
        """The two-segment drive (fault injection) is replayed as a drive
        stop: watchdog-recovery no longer falls back to per-instance runs."""
        spec = CampaignSpec(
            name="batch-watchdog",
            description="seeded watchdog recovery batches across horizons",
            scenario="watchdog-recovery",
            grid={"horizon_cycles": (200_000, 400_000), "seed": (0, 1)},
        )
        assert scenario(spec.scenario).batch_prepare is not None
        serial = execute_campaign(spec, jobs=1, batch=False)
        batched = execute_campaign(spec, jobs=1, batch=True)
        assert batched.batched_points == 4
        assert batched.batch_fallbacks == []
        assert _payload_bytes(serial) == _payload_bytes(batched)

    def test_heterogeneous_drives_fall_back_with_reason(self):
        """A seeded group whose horizons derive *different* fault-injection
        drives cannot share one instance: it falls back, and the manifest
        records why (the clamp in seeded_watchdog_recovery_config binds at
        horizon 5000, so the 5 k and 200 k points disagree on the drive)."""
        spec = CampaignSpec(
            name="batch-watchdog-hetero",
            description="horizon-dependent drives force a per-group fallback",
            scenario="watchdog-recovery",
            grid={"horizon_cycles": (5_000, 200_000), "seed": (0,)},
        )
        serial = execute_campaign(spec, jobs=1, batch=False)
        batched = execute_campaign(spec, jobs=1, batch=True)
        assert batched.batched_points == 0
        [record] = batched.batch_fallbacks
        assert "different fault-injection drives" in record["reason"]
        assert record["points"] == [0, 1]
        assert _payload_bytes(serial) == _payload_bytes(batched)
        manifest = manifest_payload(spec, batched)
        assert manifest["execution"]["batch_fallbacks"] == [record]

    def test_non_batchable_scenario_falls_back_with_reason(self):
        spec = _non_batchable_campaign()
        serial = execute_campaign(spec, jobs=1, batch=False)
        batched = execute_campaign(spec, jobs=1, batch=True)
        assert batched.batched_points == 0
        [record] = batched.batch_fallbacks
        assert "does not support batched execution" in record["reason"]
        assert record["points"] == [0, 1]
        assert _payload_bytes(serial) == _payload_bytes(batched)
        # batch=False means nobody asked for batching: no fallback records.
        assert serial.batch_fallbacks == []


class TestComposition:
    def test_batch_composes_with_jobs_and_chunk(self):
        serial = execute_campaign(SMALL_SPEC, jobs=1, batch=False)
        pooled = execute_campaign(SMALL_SPEC, jobs=2, chunk=1, batch=True)
        assert _payload_bytes(serial) == _payload_bytes(pooled)
        # chunk=1 cannot split a 2-point group: sharing survives chunking.
        assert pooled.batched_points == 4

    def test_batch_composes_with_shard(self):
        serial = execute_campaign(SMALL_SPEC, jobs=1, batch=False)
        shards = [
            execute_campaign(SMALL_SPEC, shard=ShardSpec(index=index, count=2), batch=True)
            for index in range(2)
        ]
        merged = [point for shard in shards for point in shard.points]
        merged.sort(key=lambda point: point.index)
        assert [p.index for p in merged] == [p.index for p in serial.points]
        serial_records = [json.dumps(r.stats, sort_keys=True) for r in serial.points]
        shard_records = [json.dumps(r.stats, sort_keys=True) for r in merged]
        assert serial_records == shard_records

    def test_batch_composes_with_resume(self, tmp_path):
        first = execute_campaign(SMALL_SPEC, jobs=1, batch=True)
        write_artifacts(SMALL_SPEC, first, tmp_path)
        reuse = load_reusable_results(SMALL_SPEC, tmp_path)
        assert len(reuse) == 4
        resumed = execute_campaign(SMALL_SPEC, jobs=1, reuse=reuse, batch=True)
        assert resumed.n_reused == 4
        assert resumed.batched_points == 0  # nothing left to execute
        assert _payload_bytes(first) == _payload_bytes(resumed)

    def test_manifest_records_batch_execution(self, tmp_path):
        result = execute_campaign(SMALL_SPEC, jobs=1, batch=True)
        execution = manifest_payload(SMALL_SPEC, result)["execution"]
        assert execution["batched_points"] == 4
        assert execution["batch_fallbacks"] == []
        serial = execute_campaign(SMALL_SPEC, jobs=1, batch=False)
        serial_execution = manifest_payload(SMALL_SPEC, serial)["execution"]
        assert serial_execution["batched_points"] == 0


class TestCli:
    def test_batch_flag_round_trip(self, tmp_path, capsys):
        on_dir, off_dir = tmp_path / "on", tmp_path / "off"
        assert main(["sweep", "smoke", "--batch", "on", "--out", str(on_dir)]) == 0
        assert main(["sweep", "smoke", "--batch", "off", "--out", str(off_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 batched" in out
        for name in ("results.json", "results.csv"):
            assert (on_dir / "smoke" / name).read_bytes() == (off_dir / "smoke" / name).read_bytes()
        on_manifest = json.loads((on_dir / "smoke" / "manifest.json").read_text())
        off_manifest = json.loads((off_dir / "smoke" / "manifest.json").read_text())
        assert on_manifest["execution"]["batched_points"] == 4
        assert off_manifest["execution"]["batched_points"] == 0

    def test_batch_on_warns_for_non_batchable_scenario(self, tmp_path, capsys):
        spec = _non_batchable_campaign()
        assert main(["sweep", spec.name, "--batch", "on", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "does not support batched execution" in err
        assert "fell back to per-instance execution" in err
