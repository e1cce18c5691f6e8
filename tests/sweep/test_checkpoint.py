"""Group checkpoints: a killed run keeps every group it finished.

The sweep CLI appends each finished batch group's records to
``checkpoint.jsonl`` in its artifact directory and deletes the file once
results.json, results.csv and manifest.json are written.  Here a run "dies"
right after its first group's append (an exception that no handler of the
sweep stack catches), which leaves exactly what a SIGKILL leaves: a
directory holding only the checkpoint.  ``smoke`` has two groups of two
points, so every reader of that directory must recompute exactly the
unfinished group's two points.
"""

import json
from pathlib import Path

import pytest

from repro.run import main
from repro.sweep import (
    IncompleteCoverageError,
    ResumeError,
    batch_groups,
    campaign,
    expand_campaign,
    load_reusable_results,
    load_shard_dir,
    merge_shards,
    plan_heal,
    read_artifact_dir,
)
from repro.sweep import artifacts
from repro.sweep.artifacts import CHECKPOINT_JSONL

SMOKE = campaign("smoke")
GROUPS = batch_groups(expand_campaign(SMOKE))


class Killed(BaseException):
    """Stands in for SIGKILL: nothing in the sweep stack catches it."""


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    assert main(["sweep", "smoke", "--out", str(out)]) == 0
    return out / "smoke"


def killed_run(argv, monkeypatch):
    """Run the sweep CLI until it dies right after its first group's append."""
    add = artifacts.Checkpoint.add

    def add_then_die(self, result):
        add(self, result)
        if self._handle is not None:  # the first append happened
            raise Killed

    monkeypatch.setattr(artifacts.Checkpoint, "add", add_then_die)
    with pytest.raises(Killed):
        main(argv)
    monkeypatch.undo()


def finished_indices(directory):
    lines = (directory / CHECKPOINT_JSONL).read_text().splitlines()[1:]
    return {json.loads(line)["record"]["index"] for line in lines}


def assert_byte_identical(directory, serial_dir):
    for name in ("results.json", "results.csv"):
        assert (directory / name).read_bytes() == (serial_dir / name).read_bytes(), name


def test_merge_and_heal_recompute_only_the_unfinished_group(tmp_path, monkeypatch, serial_dir):
    out = tmp_path / "out"
    killed_run(["sweep", "smoke", "--shard", "0/1", "--out", str(out)], monkeypatch)
    shard_dir = out / "smoke" / "shard-0-of-1"
    assert sorted(path.name for path in shard_dir.iterdir()) == [CHECKPOINT_JSONL]
    finished = finished_indices(shard_dir)
    assert finished == {point.index for point in GROUPS[0]}

    with pytest.raises(IncompleteCoverageError) as gap:
        merge_shards([load_shard_dir(shard_dir)])
    unfinished = sorted(set(range(SMOKE.n_points)) - finished)
    assert gap.value.missing == unfinished and len(unfinished) == 2
    plan = plan_heal(gap.value, out)
    assert sum(len(command["points"]) for command in plan["commands"]) == 2
    for command in plan["commands"]:
        assert main(command["argv"][3:]) == 0
    heal_dirs = [command["artifact_dir"] for command in plan["commands"]]
    manifests = [json.loads((Path(directory) / "manifest.json").read_text()) for directory in heal_dirs]
    assert sum(manifest["execution"]["computed_points"] for manifest in manifests) == 2
    assert main(["sweep", "merge", str(shard_dir), *heal_dirs, "--out", str(tmp_path / "merged")]) == 0
    assert_byte_identical(tmp_path / "merged" / "smoke", serial_dir)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_resume_reuses_a_checkpoint_only_directory(tmp_path, monkeypatch, serial_dir, jobs):
    # Under a pool the parent appends each group as its task returns.
    killed_run(["sweep", "smoke", "--jobs", jobs, "--out", str(tmp_path)], monkeypatch)
    campaign_dir = tmp_path / "smoke"
    assert sorted(path.name for path in campaign_dir.iterdir()) == [CHECKPOINT_JSONL]
    assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 0
    execution = json.loads((campaign_dir / "manifest.json").read_text())["execution"]
    assert execution["computed_points"] == 2 and execution["reused_points"] == 2
    assert not (campaign_dir / CHECKPOINT_JSONL).exists()
    assert_byte_identical(campaign_dir, serial_dir)


def test_a_resumed_run_killed_again_keeps_what_it_reused(tmp_path, monkeypatch, serial_dir):
    killed_run(["sweep", "smoke", "--out", str(tmp_path)], monkeypatch)
    # The resumed run rewrites the checkpoint: its first append carries
    # the reused group as well as the one it computed.
    killed_run(["sweep", "smoke", "--resume", "--out", str(tmp_path)], monkeypatch)
    campaign_dir = tmp_path / "smoke"
    assert finished_indices(campaign_dir) == set(range(SMOKE.n_points))
    assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 0
    assert json.loads((campaign_dir / "manifest.json").read_text())["execution"]["computed_points"] == 0
    assert sorted(path.name for path in campaign_dir.iterdir()) == ["manifest.json", "results.csv", "results.json"]
    assert_byte_identical(campaign_dir, serial_dir)


def test_a_line_cut_short_by_the_kill_is_dropped(tmp_path, monkeypatch):
    killed_run(["sweep", "smoke", "--out", str(tmp_path)], monkeypatch)
    path = tmp_path / "smoke" / CHECKPOINT_JSONL
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3  # header + the first group's two points
    path.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    loaded = read_artifact_dir(tmp_path / "smoke")
    assert loaded.from_checkpoint and [point.index for point in loaded.points] == [GROUPS[0][0].index]
    assert list(load_reusable_results(SMOKE, tmp_path)) == [GROUPS[0][0].index]
    # A header cut short leaves nothing: the directory holds no artifacts.
    path.write_text(lines[0][:10])
    assert load_reusable_results(SMOKE, tmp_path) == {}


def test_a_corrupt_middle_line_names_the_file(tmp_path, monkeypatch, capsys):
    killed_run(["sweep", "smoke", "--out", str(tmp_path)], monkeypatch)
    path = tmp_path / "smoke" / CHECKPOINT_JSONL
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "{not json\n" + lines[2])
    with pytest.raises(ResumeError, match=f"{path}: line 2"):
        read_artifact_dir(tmp_path / "smoke")
    capsys.readouterr()
    assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_a_checkpoint_of_another_campaign_definition_reuses_nothing(tmp_path, monkeypatch):
    killed_run(["sweep", "smoke", "--out", str(tmp_path)], monkeypatch)
    path = tmp_path / "smoke" / CHECKPOINT_JSONL
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["spec_hash"] = "0" * 64
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert load_reusable_results(SMOKE, tmp_path) == {}
    assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 0
    execution = json.loads((tmp_path / "smoke" / "manifest.json").read_text())["execution"]
    assert execution["computed_points"] == SMOKE.n_points and execution["reused_points"] == 0


def test_finished_runs_leave_no_checkpoint(tmp_path):
    assert main(["sweep", "smoke", "--jobs", "2", "--out", str(tmp_path)]) == 0
    assert main(["sweep", "smoke", "--shard", "1/2", "--out", str(tmp_path)]) == 0
    assert not list(tmp_path.rglob(CHECKPOINT_JSONL))
