"""Batched sweep execution: grouping, byte-identity, composition, failures.

The acceptance oracle of the batched executor is byte-identity: for every
registry campaign, the sweep's artifacts must equal those of the solo
reference — :func:`~repro.sweep.execute.run_point` over every point — bit
for bit.  Groups that cannot batch (no prepare hook, or heterogeneous
derived drives) must fall back with the reason recorded in the manifest, a
bad point must fail alone without taking the campaign down, and batching
must compose with ``--jobs``/``--shard``/``--resume``.
"""

import dataclasses
import gc
import json
import weakref

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
from repro.sweep.execute import CampaignResult, run_point
from repro.workloads import registry
from repro.workloads.registry import PreparedScenario, scenario

SMALL_SPEC = CampaignSpec(
    name="batch-test",
    description="small batchable campaign for the batching tests",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _payload_bytes(result):
    return json.dumps(results_payload(result), indent=2, sort_keys=True)


def _solo(spec):
    """The solo reference: every point of ``spec`` run alone."""
    points = [run_point(point) for point in expand_campaign(spec)]
    return CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        points=points,
        jobs=1,
        wall_seconds=0.0,
        points_total=len(points),
    )


def _non_batchable_campaign():
    """A campaign over a scenario without a prepare hook (registered lazily
    so it does not leak into the registry-campaign parametrisation)."""
    name = "monitor-non-batchable-test"
    try:
        return campaign(name)
    except KeyError:
        assert scenario("always-on-monitor").prepare is None
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


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(campaign_names()))
    def test_every_registry_campaign_is_batch_identical(self, name, tmp_path):
        """The acceptance criterion: batched == solo, bit for bit, for
        results.json *and* results.csv of every registry campaign."""
        spec = campaign(name)
        serial = _solo(spec)
        batched = execute_campaign(spec, jobs=1)
        assert _payload_bytes(serial) == _payload_bytes(batched)
        serial_paths = write_artifacts(spec, serial, tmp_path / "serial")
        batched_paths = write_artifacts(spec, batched, tmp_path / "batched")
        for key in ("results_json", "results_csv"):
            assert serial_paths[key].read_bytes() == batched_paths[key].read_bytes()

    def test_batchable_scenarios_report_batched_points(self):
        batched = execute_campaign(SMALL_SPEC, jobs=1)
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
        assert scenario(spec.scenario).prepare is not None
        serial = _solo(spec)
        batched = execute_campaign(spec, jobs=1)
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
        serial = _solo(spec)
        batched = execute_campaign(spec, jobs=1)
        assert batched.batched_points == 0
        [record] = batched.batch_fallbacks
        assert "different fault-injection drives" in record["reason"]
        assert record["points"] == [0, 1]
        assert _payload_bytes(serial) == _payload_bytes(batched)
        manifest = manifest_payload(spec, batched)
        assert manifest["execution"]["batch_fallbacks"] == [record]

    def test_non_batchable_scenario_falls_back_with_reason(self):
        spec = _non_batchable_campaign()
        serial = _solo(spec)
        batched = execute_campaign(spec, jobs=1)
        assert batched.batched_points == 0
        [record] = batched.batch_fallbacks
        assert "does not support batched execution" in record["reason"]
        assert record["points"] == [0, 1]
        assert _payload_bytes(serial) == _payload_bytes(batched)


class TestBadPoints:
    """A prepare hook rejecting its parameters fails those points alone: the
    group falls back to solo runs, the campaign completes and writes
    artifacts, and the manifest records each bad point and the fallback."""

    SPEC = CampaignSpec(
        name="batch-bad-points",
        description="a zero sampling period is rejected by the prepare hook",
        scenario="duty-cycled-logging",
        grid={"horizon_cycles": (20_000, 40_000), "sample_period_cycles": (1_000, 0)},
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejected_group_fails_only_its_points(self, jobs, tmp_path):
        result = execute_campaign(self.SPEC, jobs=jobs)
        assert [record["index"] for record in result.failed_points] == [1, 3]
        for record in result.failed_points:
            assert record["error"] == "ValueError: duty-cycled sampling needs a period >= 100 cycles"
        assert [point.index for point in result.points] == [0, 2]
        assert result.batched_points == 2
        assert result.batch_fallbacks == [
            {"reason": "duty-cycled sampling needs a period >= 100 cycles", "points": [1, 3]}
        ]
        good = [run_point(point) for point in expand_campaign(self.SPEC) if point.index in (0, 2)]
        assert [point.stats for point in result.points] == [point.stats for point in good]
        paths = write_artifacts(self.SPEC, result, tmp_path)
        execution = json.loads(paths["manifest_json"].read_text())["execution"]
        assert [record["index"] for record in execution["failed_points"]] == [1, 3]


class TestComposition:
    def test_batch_composes_with_jobs_and_chunk(self):
        serial = _solo(SMALL_SPEC)
        pooled = execute_campaign(SMALL_SPEC, jobs=2)
        assert _payload_bytes(serial) == _payload_bytes(pooled)
        # A pool task never splits a 2-point group: sharing survives the pool.
        assert pooled.batched_points == 4

    def test_batch_composes_with_shard(self):
        serial = _solo(SMALL_SPEC)
        shards = [
            execute_campaign(SMALL_SPEC, shard=ShardSpec(index=index, count=2))
            for index in range(2)
        ]
        merged = [point for shard in shards for point in shard.points]
        merged.sort(key=lambda point: point.index)
        assert [p.index for p in merged] == [p.index for p in serial.points]
        serial_records = [json.dumps(r.stats, sort_keys=True) for r in serial.points]
        shard_records = [json.dumps(r.stats, sort_keys=True) for r in merged]
        assert serial_records == shard_records

    def test_batch_composes_with_resume(self, tmp_path):
        first = execute_campaign(SMALL_SPEC, jobs=1)
        write_artifacts(SMALL_SPEC, first, tmp_path)
        reuse = load_reusable_results(SMALL_SPEC, tmp_path)
        assert len(reuse) == 4
        resumed = execute_campaign(SMALL_SPEC, jobs=1, reuse=reuse)
        assert resumed.n_reused == 4
        assert resumed.batched_points == 0  # nothing left to execute
        assert _payload_bytes(first) == _payload_bytes(resumed)

    def test_manifest_records_batch_execution(self, tmp_path):
        result = execute_campaign(SMALL_SPEC, jobs=1)
        execution = manifest_payload(SMALL_SPEC, result)["execution"]
        assert execution["batched_points"] == 4
        assert execution["batch_fallbacks"] == []


class TestHonestWalls:
    def test_point_walls_add_up_to_the_run(self):
        # Groups run one at a time and each stop is charged the time since
        # its group's previous stop (the first one also its enrollment),
        # split across its points, so the manifest's per-point walls of a
        # serial batched run add up to the run's wall time.
        spec = CampaignSpec(
            name="honest-walls",
            description="two-horizon multi-link-pipeline groups",
            scenario="multi-link-pipeline",
            grid={"horizon_cycles": (10_000, 20_000), "clock_ratio": (1, 4), "timer_period_cycles": (150, 600)},
        )
        result = execute_campaign(spec, jobs=1)
        assert result.batched_points == spec.n_points
        execution = manifest_payload(spec, result)["execution"]
        summed = sum(execution["point_wall_seconds"].values())
        assert summed == pytest.approx(execution["wall_seconds"], rel=0.10)


def _wrap_prepare(monkeypatch, name, wrap):
    """Swap ``name``'s prepare hook for ``wrap(hook)`` for one test."""
    spec = scenario(name)
    monkeypatch.setitem(registry._REGISTRY, name, dataclasses.replace(spec, prepare=wrap(spec.prepare)))


class _Detonating(PreparedScenario):
    """A prepared scenario that raises mid-run: from ``outcome`` at its
    first horizon, or from an extra drive stop between the two horizons."""

    def __init__(self, inner, how, horizons):
        self.inner, self.how, self.horizons = inner, how, horizons

    @property
    def simulator(self):
        return self.inner.simulator

    def outcome(self, elapsed_cycles):
        if self.how == "outcome" and elapsed_cycles == self.horizons[0]:
            raise RuntimeError(f"injected outcome failure at cycle {elapsed_cycles}")
        return self.inner.outcome(elapsed_cycles)

    def drive_stops(self):
        stops = list(self.inner.drive_stops())
        if self.how == "drive":
            cycle = (self.horizons[0] + self.horizons[-1]) // 2

            def detonate(at):
                raise RuntimeError(f"injected drive failure at cycle {at}")

            stops.append((cycle, detonate))
        return stops


class TestOneGroupAtATime:
    """A task runs each batch group to completion before preparing the next."""

    @pytest.mark.parametrize("how", ["outcome", "drive"])
    @pytest.mark.parametrize("raising_period", [1_000, 2_000])
    def test_a_raising_group_loses_only_its_unsnapshotted_points(self, monkeypatch, how, raising_period):
        clean = execute_campaign(SMALL_SPEC, jobs=1)

        def wrap(hook):
            def prepare(horizons, dense, **params):
                prepared = hook(horizons, dense, **params)
                if params["sample_period_cycles"] == raising_period:
                    return _Detonating(prepared, how, horizons)
                return prepared

            return prepare

        _wrap_prepare(monkeypatch, SMALL_SPEC.scenario, wrap)
        result = execute_campaign(SMALL_SPEC, jobs=1)
        points = expand_campaign(SMALL_SPEC)
        # "outcome" raises at the first horizon, so the group snapshots
        # nothing; "drive" raises between the horizons, after the first.
        lost = [
            point.index
            for point in points
            if point.params["sample_period_cycles"] == raising_period
            and (how == "outcome" or point.horizon_cycles == 40_000)
        ]
        assert [record["index"] for record in result.failed_points] == lost
        for record in result.failed_points:
            assert record["error"].startswith(f"RuntimeError: injected {how} failure")
        assert result.batched_points == SMALL_SPEC.n_points - len(lost)
        assert result.batch_fallbacks == []
        survivors = [point for point in clean.points if point.index not in lost]
        assert [json.dumps(r.stats, sort_keys=True) for r in result.points] == [
            json.dumps(r.stats, sort_keys=True) for r in survivors
        ]

    def test_one_prepared_soc_is_alive_per_task(self, monkeypatch):
        refs = []
        alive = []

        def wrap(hook):
            def prepare(horizons, dense, **params):
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
                prepared = hook(horizons, dense, **params)
                refs.append(weakref.ref(prepared.simulator))
                return prepared

            return prepare

        _wrap_prepare(monkeypatch, SMALL_SPEC.scenario, wrap)
        result = execute_campaign(SMALL_SPEC, jobs=1)
        assert result.batched_points == SMALL_SPEC.n_points
        assert alive == [0, 0]


class TestCli:
    def test_sweep_reports_batched_points(self, tmp_path, capsys):
        assert main(["sweep", "smoke", "--out", str(tmp_path)]) == 0
        assert "4 batched" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "smoke" / "manifest.json").read_text())
        assert manifest["execution"]["batched_points"] == 4

    def test_sweep_warns_for_non_batchable_scenario(self, tmp_path, capsys):
        spec = _non_batchable_campaign()
        assert main(["sweep", spec.name, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "does not support batched execution" in err
        assert "fell back to per-instance execution" in err
