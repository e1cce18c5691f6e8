"""Shard-level heal (`sweep merge --heal`): exact re-run commands for gaps.

When a fleet member dies, ``sweep merge`` refuses to stitch the incomplete
shard set — and with ``--heal`` it must emit the *exact* ``--shard`` re-run
commands (plus a machine-readable ``heal.json``) that close the gap, such
that running them and re-merging yields byte-identical single-host
artifacts.
"""

import json

import pytest

from repro.run import main
from repro.sweep import (
    CampaignSpec,
    IncompleteCoverageError,
    ShardSpec,
    execute_campaign,
    load_shard_dir,
    merge_shards,
    plan_heal,
    write_artifacts,
)

SPEC = CampaignSpec(
    name="heal-test",
    description="small campaign for the heal tests",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _write_fleet(tmp_path, count):
    """Execute SPEC as ``count`` shards, one artifact dir per shard."""
    directories = []
    for index in range(count):
        shard = ShardSpec(index=index, count=count)
        result = execute_campaign(SPEC, shard=shard)
        paths = write_artifacts(SPEC, result, tmp_path, subdir=f"shard-{index}-of-{count}")
        directories.append(paths["results_json"].parent)
    return directories


def _read(directories):
    """Read each directory through merge's path gate, as ``sweep merge`` does."""
    return [load_shard_dir(directory) for directory in directories]


class TestIncompleteCoverage:
    # SPEC is horizon-major: its batch groups are {0, 2} and {1, 3}, so a
    # balanced 4-way fleet is shards {0, 2}, {1, 3} and two empty ones.

    def test_missing_shard_raises_structured_error(self, tmp_path):
        directories = _write_fleet(tmp_path, 4)
        with pytest.raises(IncompleteCoverageError) as excinfo:
            merge_shards(_read(directories[:1] + directories[2:]))
        error = excinfo.value
        assert error.missing == [1, 3]
        assert error.points_total == 4
        assert error.spec.name == SPEC.name
        assert "--heal" in str(error)

    def test_plan_heal_reruns_the_dead_shard(self, tmp_path):
        directories = _write_fleet(tmp_path, 4)
        survivors = [directories[0], directories[2], directories[3]]
        with pytest.raises(IncompleteCoverageError) as excinfo:
            merge_shards(_read(survivors))
        plan = plan_heal(excinfo.value, tmp_path)
        assert plan["missing"] == [1, 3]
        # The dead shard's one group comes back as one explicit index set.
        assert [command["shard"] for command in plan["commands"]] == ["0/1@1:2,3:4"]
        command = plan["commands"][0]
        assert command["points"] == [1, 3]
        assert command["argv"][:5] == ["python", "-m", "repro.run", "sweep", SPEC.name]
        assert "--shard 0/1@1:2,3:4" in command["command"]
        assert str(tmp_path) in command["command"]
        # merge_after lists the survivors plus the shard the command creates.
        assert plan["merge_after"] == [str(directory) for directory in survivors] + [command["artifact_dir"]]

    def test_plan_heal_never_splits_a_group(self, tmp_path):
        directories = _write_fleet(tmp_path, 2)
        # Amputate records from inside both shards: the whole group {0, 2}
        # and point 1 of the group {1, 3}.  Heal cuts the missing points by
        # group, as wide as the 2-shard fleet: one shard per group, and
        # never one group's missing points across two shards.
        for directory, lost in ((directories[0], {0, 2}), (directories[1], {1})):
            results_path = directory / "results.json"
            payload = json.loads(results_path.read_text())
            payload["points"] = [record for record in payload["points"] if record["index"] not in lost]
            results_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with pytest.raises(IncompleteCoverageError) as excinfo:
            merge_shards(_read(directories))
        plan = plan_heal(excinfo.value, tmp_path)
        assert plan["missing"] == [0, 1, 2]
        assert [command["shard"] for command in plan["commands"]] == ["0/2@0:1,2:3", "1/2@1:2"]
        assert [command["points"] for command in plan["commands"]] == [[0, 2], [1]]


class TestHealCli:
    def test_heal_emits_commands_and_json(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        for index in range(3):
            assert (
                main(["sweep", "smoke", "--shard", f"{index}/3", "--out", str(out)]) == 0
            )
        capsys.readouterr()
        survivors = [str(out / "smoke" / f"shard-{index}-of-3") for index in (0, 2)]

        # Without --heal: plain failure, exit 2, gaps named.
        assert main(["sweep", "merge", *survivors, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "incomplete coverage" in captured.err
        assert not (out / "smoke" / "heal.json").exists()

        # With --heal: exit 3, commands on stdout, heal.json written.
        assert main(["sweep", "merge", *survivors, "--out", str(out), "--heal"]) == 3
        captured = capsys.readouterr()
        # smoke's groups are {0, 2} and {1, 3}: the lost shard 1/3 held {1, 3}.
        assert f"sweep smoke --shard 0/1@1:2,3:4 --out {out}" in captured.out
        heal = json.loads((out / "smoke" / "heal.json").read_text())
        assert heal["campaign"] == "smoke"
        assert heal["missing"] == [1, 3]
        assert [command["shard"] for command in heal["commands"]] == ["0/1@1:2,3:4"]
        assert len(heal["merge_after"]) == 3

    def test_healed_fleet_merges_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        for index in (0, 2):
            assert (
                main(["sweep", "smoke", "--shard", f"{index}/3", "--out", str(out)]) == 0
            )
        survivors = [str(out / "smoke" / f"shard-{index}-of-3") for index in (0, 2)]
        assert main(["sweep", "merge", *survivors, "--out", str(out), "--heal"]) == 3
        heal = json.loads((out / "smoke" / "heal.json").read_text())

        # Run exactly the emitted commands (drop the leading python -m repro.run).
        for command in heal["commands"]:
            assert main(command["argv"][3:]) == 0
        assert (
            main(["sweep", "merge", *heal["merge_after"], "--out", str(tmp_path / "merged")]) == 0
        )
        serial = tmp_path / "serial"
        assert main(["sweep", "smoke", "--jobs", "1", "--out", str(serial)]) == 0
        for name in ("results.json", "results.csv"):
            assert (tmp_path / "merged" / "smoke" / name).read_bytes() == (
                serial / "smoke" / name
            ).read_bytes()

    def test_successful_merge_removes_stale_heal_plan(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        for index in (0, 2):
            assert (
                main(["sweep", "smoke", "--shard", f"{index}/3", "--out", str(out)]) == 0
            )
        survivors = [str(out / "smoke" / f"shard-{index}-of-3") for index in (0, 2)]
        assert main(["sweep", "merge", *survivors, "--out", str(out), "--heal"]) == 3
        assert (out / "smoke" / "heal.json").exists()
        # Fill the gap and merge into the same out dir: the now-satisfied
        # heal plan must not survive next to complete artifacts.
        assert main(["sweep", "smoke", "--shard", "1/3", "--out", str(out)]) == 0
        healed = survivors[:1] + [str(out / "smoke" / "shard-1-of-3")] + survivors[1:]
        assert main(["sweep", "merge", *healed, "--out", str(out)]) == 0
        assert not (out / "smoke" / "heal.json").exists()
