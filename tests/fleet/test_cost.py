"""Cost model: group pricing, the one cut of whole groups, fleet shards,
timing scavenging."""

import json

import pytest

from repro.fleet.cost import scavenge_point_walls
from repro.sweep.artifacts import Checkpoint, write_artifacts
from repro.sweep.campaign import (
    DEFAULT_SECONDS_PER_CYCLE,
    CampaignSpec,
    ShardSpec,
    SweepPoint,
    batch_groups,
    cut_groups,
    cut_shards,
    estimate_costs,
    expand_campaign,
)
from repro.sweep.execute import execute_campaign

SPEC = CampaignSpec(
    name="fleet-cost-test",
    description="small campaign for cost-model tests",
    scenario="duty-cycled-logging",
    grid={
        "sample_period_cycles": (2_000, 4_000),
        "horizon_cycles": (40_000, 60_000),
    },
)


def make_groups(sizes):
    """Groups of consecutively numbered points, one group per size."""
    groups, index = [], 0
    for number, size in enumerate(sizes):
        group = []
        for _ in range(size):
            group.append(
                SweepPoint(
                    index=index,
                    campaign="cut",
                    scenario="duty-cycled-logging",
                    horizon_cycles=1_000 * (len(group) + 1),
                    dense=False,
                    params={"sample_period_cycles": number},
                )
            )
            index += 1
        groups.append(group)
    return groups


def part_sizes(parts):
    return [len(part) for part in parts]


class TestCutSpans:
    """The one cut (:func:`cut_groups`): contiguous runs of whole groups."""

    @pytest.mark.parametrize("n_points", [1, 2, 3, 7, 24, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_partition_is_contiguous_and_complete(self, n_points, workers):
        groups = make_groups([1 + index % 3 for index in range(n_points)])
        parts = cut_groups(groups, [1.0] * n_points, workers)
        covered = [group for part in parts for group in part]
        assert covered == groups  # in order, no gap, no overlap, none split
        assert all(parts)  # never empty
        assert len(parts) == min(workers, n_points)

    def test_uniform_costs_cut_balanced(self):
        parts = cut_groups(make_groups([2] * 12), [1.0] * 12, 4)
        assert part_sizes(parts) == [3, 3, 3, 3]

    def test_expensive_head_gets_a_small_span(self):
        # One group worth as much as all the rest together: it should be
        # cut off alone, and the cheap tail shared among the other parts.
        costs = [30.0] + [1.0] * 30
        parts = cut_groups(make_groups([1] * 31), costs, 4)
        assert part_sizes(parts)[0] == 1
        sizes = part_sizes(parts)[1:]
        assert sum(sizes) == 30
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_points(self):
        groups = make_groups([3, 2])
        assert cut_groups(groups, [1.0, 1.0], 5) == [[groups[0]], [groups[1]]]

    def test_no_worker_starves_while_points_remain(self):
        # A huge first group must not swallow the whole range: every
        # remaining part is guaranteed at least one group.
        parts = cut_groups(make_groups([1, 1, 1, 1]), [1000.0, 1.0, 1.0, 1.0], 4)
        assert part_sizes(parts) == [1, 1, 1, 1]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="parts"):
            cut_groups(make_groups([1]), [1.0], 0)


class TestCutShards:
    def test_emits_explicit_span_shards_that_round_trip(self):
        groups = make_groups([2] * 10)
        shards = cut_shards(groups, [1.0] * 10, 3)
        assert all(isinstance(shard, ShardSpec) and shard.runs for shard in shards)
        for shard in shards:
            assert ShardSpec.parse(str(shard)) == shard
        assert [shard.count for shard in shards] == [len(shards)] * len(shards)

    def test_spans_cover_the_grid(self):
        # pipeline-clock-ratio's shape: horizon is the slowest axis, so every
        # group is strided and each shard is a set of several index runs.
        spec = CampaignSpec(
            name="strided-cut",
            description="horizon-major grid",
            scenario="duty-cycled-logging",
            grid={"horizon_cycles": (20_000, 30_000, 40_000), "sample_period_cycles": (1_000, 2_000, 3_000)},
        )
        points = expand_campaign(spec)
        groups = batch_groups(points)
        shards = cut_shards(groups, estimate_costs(groups, {}), 2)
        selected = [[point.index for point in shard.select(points)] for shard in shards]
        assert sorted(index for part in selected for index in part) == list(range(len(points)))
        for group in groups:
            owners = [number for number, part in enumerate(selected) if group[0].index in part]
            assert all(point.index in selected[owners[0]] for point in group)
        assert len(shards[0].runs) > 1


class TestEstimateCosts:
    def test_without_observations_costs_scale_with_horizon(self):
        # A group costs its deepest horizon: one simulation to it serves
        # every shallower point of the group.
        groups = batch_groups(expand_campaign(SPEC))
        for group, cost in zip(groups, estimate_costs(groups, {})):
            assert cost == pytest.approx(60_000 * DEFAULT_SECONDS_PER_CYCLE)

    def test_observed_walls_are_used_verbatim(self):
        groups = batch_groups(expand_campaign(SPEC))
        walls = {point.index: 0.5 + point.index for point in groups[0]}
        assert estimate_costs(groups, walls)[0] == pytest.approx(sum(walls.values()))

    def test_observations_calibrate_unobserved_points(self):
        groups = batch_groups(expand_campaign(SPEC))
        # One observed group prices the rest by its seconds per deepest cycle;
        # a partly observed group counts as unobserved.
        walls = {point.index: 3.0 for point in groups[0]}
        walls[groups[1][0].index] = 100.0
        costs = estimate_costs(groups, walls)
        assert costs[1] == pytest.approx(60_000 * (6.0 / 60_000))

    def test_costs_are_strictly_positive(self):
        groups = batch_groups(expand_campaign(SPEC))
        costs = estimate_costs(groups, {index: 0.0 for index in range(SPEC.n_points)})
        assert all(cost > 0 for cost in costs)


class TestScavenge:
    @pytest.fixture(scope="class")
    def artifacts_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scavenge")
        result = execute_campaign(SPEC, jobs=1)
        write_artifacts(SPEC, result, out)
        return out

    def test_harvests_walls_from_past_artifacts(self, artifacts_dir):
        walls, notes = scavenge_point_walls(SPEC, artifacts_dir)
        assert notes == []
        assert set(walls) == set(range(SPEC.n_points))
        assert all(wall >= 0 for wall in walls.values())

    def test_missing_campaign_dir_is_empty_not_an_error(self, tmp_path):
        walls, notes = scavenge_point_walls(SPEC, tmp_path)
        assert walls == {} and notes == []

    def test_other_campaigns_artifacts_are_ignored(self, artifacts_dir):
        other = CampaignSpec(
            name=SPEC.name,  # same directory, different grid -> spec_hash differs
            description="different campaign in the same directory",
            scenario=SPEC.scenario,
            grid={"horizon_cycles": (40_000,), "sample_period_cycles": (2_000,)},
        )
        walls, notes = scavenge_point_walls(other, artifacts_dir)
        assert walls == {} and notes == []

    def test_damaged_manifest_is_noted_not_fatal(self, artifacts_dir, tmp_path):
        import shutil

        out = tmp_path / "damaged"
        shutil.copytree(artifacts_dir, out)
        manifest = out / SPEC.name / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["execution"]["point_wall_seconds"]["0"] = "not-a-number"
        manifest.write_text(json.dumps(payload))
        walls, notes = scavenge_point_walls(SPEC, out)
        assert walls == {}
        assert len(notes) == 1 and "not numeric" in notes[0]

    def test_killed_runs_checkpoint_yields_its_walls(self, tmp_path):
        # A run killed after its first group leaves only checkpoint.jsonl;
        # the walls of the points it finished still calibrate the next cut.
        result = execute_campaign(SPEC, jobs=1)
        points = expand_campaign(SPEC)
        checkpoint = Checkpoint(SPEC, tmp_path / SPEC.name / "shard-0-of-1", points)
        first_group = {point.index for point in batch_groups(points)[0]}
        finished = [point for point in result.points if point.index in first_group]
        for point in finished:
            checkpoint.add(point)
        assert [path.name for path in checkpoint.path.parent.iterdir()] == ["checkpoint.jsonl"]
        walls, notes = scavenge_point_walls(SPEC, tmp_path)
        assert notes == []
        assert walls == {point.index: point.wall_seconds for point in finished}

    def test_truncated_results_are_noted_and_contribute_no_walls(self, artifacts_dir, tmp_path):
        # Merge and --resume refuse a directory whose results.json is cut
        # short; the scavenger decides the same, even though its manifest
        # still parses.
        import shutil

        out = tmp_path / "truncated"
        shutil.copytree(artifacts_dir, out)
        results = out / SPEC.name / "results.json"
        results.write_text(results.read_text()[:200])
        walls, notes = scavenge_point_walls(SPEC, out)
        assert walls == {}
        assert len(notes) == 1 and "results.json" in notes[0] and "invalid JSON" in notes[0]
