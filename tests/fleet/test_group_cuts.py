"""A strided campaign through every cut: no shard ever splits a batch group.

``pipeline-clock-ratio`` sweeps its horizon as the slowest grid axis, so
each of its eight batch groups is strided across the index range (points
g, g+8, g+16, ...).  A cut by contiguous point ranges would hand every
worker a slice of every group and make each re-simulate the groups' shared
prefixes; the one group cut instead gives each shard whole groups as an
index set.  Both the balanced ``--shard I/3`` slices and a cold fleet must
cut on group boundaries and merge byte-identically to ``--jobs 1``, and a
warm fleet re-run must reuse every point of the merged results it left.
"""

import filecmp
import json
from pathlib import Path

import pytest

from repro.fleet import EXIT_COMPLETE, FleetConfig, run_fleet
from repro.run import main
from repro.sweep import batch_groups, campaign, expand_campaign

CAMPAIGN = "pipeline-clock-ratio"


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("serial")
    assert main(["sweep", CAMPAIGN, "--jobs", "1", "--out", str(out)]) == 0
    return out / CAMPAIGN


def assert_byte_identical(campaign_dir: Path, serial_dir: Path) -> None:
    for name in ("results.json", "results.csv"):
        assert filecmp.cmp(campaign_dir / name, serial_dir / name, shallow=False), name


def assert_whole_groups(directories) -> None:
    """Every batch group's points sit in exactly one of ``directories``."""
    holders = {}
    for directory in directories:
        for record in json.loads((Path(directory) / "results.json").read_text())["points"]:
            holders[record["index"]] = str(directory)
    groups = batch_groups(expand_campaign(campaign(CAMPAIGN)))
    assert len(groups) == 8 and groups[0][1].index - groups[0][0].index == 8  # strided
    assert sorted(holders) == sorted(point.index for group in groups for point in group)
    for group in groups:
        assert len({holders[point.index] for point in group}) == 1, f"group {group[0].index} split"


def test_balanced_shards_cut_whole_groups(tmp_path, serial_dir, capsys):
    out = tmp_path / "shards"
    for index in range(3):
        assert main(["sweep", CAMPAIGN, "--shard", f"{index}/3", "--out", str(out)]) == 0
    shard_dirs = [out / CAMPAIGN / f"shard-{index}-of-3" for index in range(3)]
    assert_whole_groups(shard_dirs)
    assert main(["sweep", "merge", *map(str, shard_dirs), "--out", str(tmp_path / "merged")]) == 0
    assert_byte_identical(tmp_path / "merged" / CAMPAIGN, serial_dir)
    capsys.readouterr()


def test_fleet_cuts_whole_groups_and_warm_rerun_misses_nothing(tmp_path, serial_dir):
    config = dict(campaign=CAMPAIGN, workers=2, out=tmp_path / "fleet", timeout=120.0, echo=lambda message: None)
    cold = run_fleet(FleetConfig(**config))
    assert cold.exit_code == EXIT_COMPLETE and cold.rounds == 1
    ledger = json.loads(cold.ledger_path.read_text())
    attempts = ledger["rounds"][0]["attempts"]
    assert len(attempts) == 2
    assert_whole_groups([attempt["artifact_dir"] for attempt in attempts])
    assert_byte_identical(cold.campaign_dir, serial_dir)

    # The warm re-run prices its cut from the cold run's walls; whatever it
    # cuts, every worker resumes from the merged results.json the cold run
    # left, so no shard computes a point.
    merged_before = (cold.campaign_dir / "results.json").read_bytes()
    warm = run_fleet(FleetConfig(**config))
    assert warm.exit_code == EXIT_COMPLETE
    accepted = [a for a in json.loads(warm.ledger_path.read_text())["rounds"][0]["attempts"] if a["accepted"]]
    reused = 0
    for attempt in accepted:
        execution = json.loads((Path(attempt["artifact_dir"]) / "manifest.json").read_text())["execution"]
        assert execution["computed_points"] == 0, attempt["artifact_dir"]
        reused += execution["reused_points"]
    assert reused == campaign(CAMPAIGN).n_points
    assert (warm.campaign_dir / "results.json").read_bytes() == merged_before
    assert_byte_identical(warm.campaign_dir, serial_dir)

    # The merged manifest's counts are its own summed counters, and the
    # cold run's shards the warm merge did not read are pruned.
    merged = json.loads((warm.campaign_dir / "manifest.json").read_text())["execution"]
    counters = merged["telemetry"]["metrics"]["counter"]
    for kind in ("reused", "computed", "batched"):
        assert merged[f"{kind}_points"] == counters.get(f"sweep.points{{kind={kind}}}", 0), kind
    assert merged["computed_points"] == 0 and merged["reused_points"] == campaign(CAMPAIGN).n_points
    remaining = {str(path) for path in warm.campaign_dir.glob("shard-*")}
    assert remaining == {source["directory"] for source in merged["merged_from"]}
