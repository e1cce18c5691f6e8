"""Chaos/fault-injection suite: the fleet heals real failures.

Every test here spawns real ``sweep --shard`` subprocess workers on the
built-in ``smoke`` campaign (4 points — subprocesses cannot see campaigns
registered in this process) and injects real faults through the production
supervision path: an actual SIGKILL mid-shard, a worker replaced by a
sleeper (the timeout path), a results.json truncated after a clean exit.
The bar is always the same: the fleet heals, recomputes only what is
missing, and the merged artifacts are byte-identical to a serial
``--jobs 1`` run.
"""

import filecmp
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.fleet import (
    EXIT_COMPLETE,
    EXIT_PARTIAL,
    FleetConfig,
    parse_chaos,
    run_fleet,
)
from repro.fleet.controller import _worker_argv
from repro.run import main
from repro.sweep import artifacts
from repro.sweep.campaign import ShardSpec
from repro.sweep.campaigns import campaign
from repro.sweep.merge import HEAL_JSON

SMOKE = campaign("smoke")

#: Fast-retry settings so heal rounds don't slow the suite down.
FAST = dict(backoff_base=0.05, backoff_cap=0.2, poll_interval=0.02)


def make_config(tmp_path: Path, **overrides) -> FleetConfig:
    options = dict(
        campaign="smoke", workers=2, out=tmp_path / "fleet", timeout=30.0, **FAST
    )
    options.update(overrides)
    return FleetConfig(**options)


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory) -> Path:
    """Reference artifacts from a plain serial run."""
    out = tmp_path_factory.mktemp("serial")
    assert main(["sweep", "smoke", "--jobs", "1", "--out", str(out)]) == 0
    return out / "smoke"


def assert_byte_identical(campaign_dir: Path, serial_dir: Path) -> None:
    for name in ("results.json", "results.csv"):
        assert filecmp.cmp(campaign_dir / name, serial_dir / name, shallow=False), (
            f"{name} differs from the serial reference"
        )


#: A ``sweep`` worker that SIGKILLs itself right after its first group's
#: checkpoint append (argv after ``-c`` is the sweep command line).
DIE_AFTER_FIRST_GROUP = """
import os, signal, sys
from repro.sweep import artifacts
from repro.run import main
add = artifacts.Checkpoint.add
def add_then_die(self, result):
    add(self, result)
    if self._handle is not None:  # the first append happened
        os.kill(os.getpid(), signal.SIGKILL)
artifacts.Checkpoint.add = add_then_die
sys.exit(main(sys.argv[1:]))
"""


def round_attempts(result, round_index):
    payload = json.loads(result.ledger_path.read_text())
    return payload["rounds"][round_index]["attempts"]


class TestChaosHealing:
    def test_sigkill_mid_shard_heals_byte_identical(self, tmp_path, serial_dir):
        result = run_fleet(make_config(tmp_path, chaos=parse_chaos("kill:0")))
        assert result.status == "complete" and result.exit_code == EXIT_COMPLETE
        assert result.rounds == 2
        assert_byte_identical(result.campaign_dir, serial_dir)
        first = round_attempts(result, 0)
        assert first[0]["outcome"] == "crash" and first[0]["chaos"] == "kill"
        assert first[0]["returncode"] == -9 and not first[0]["accepted"]
        # Healing recomputed exactly the killed shard's points.
        survivors = sum(a["points_delivered"] for a in first if a["accepted"])
        healed = sum(a["points_delivered"] for a in round_attempts(result, 1))
        assert survivors + healed == SMOKE.n_points
        assert healed < SMOKE.n_points  # the surviving work was NOT redone

    def test_killed_worker_keeps_its_checkpointed_groups(self, tmp_path, serial_dir, monkeypatch):
        # One worker holds both of smoke's groups and dies right after its
        # first group's checkpoint append: that group counts as delivered,
        # and the heal round recomputes only the other one.
        from repro.fleet import controller

        worker_argv = controller._worker_argv
        launches = []

        def first_worker_dies(config, shard):
            argv = worker_argv(config, shard)
            launches.append(argv)
            if len(launches) == 1:
                argv = [sys.executable, "-c", DIE_AFTER_FIRST_GROUP, *argv[3:]]
            return argv

        monkeypatch.setattr(controller, "_worker_argv", first_worker_dies)
        result = run_fleet(make_config(tmp_path, workers=1))
        assert result.status == "complete" and result.rounds == 2
        (killed,) = round_attempts(result, 0)
        assert killed["returncode"] == -9 and killed["accepted"]
        assert killed["outcome"] == "partial-delivery" and killed["points_delivered"] == 2
        healed = round_attempts(result, 1)
        assert sum(a["points_delivered"] for a in healed) == 2
        computed = [
            json.loads((Path(a["artifact_dir"]) / "manifest.json").read_text())["execution"]["computed_points"]
            for a in healed
        ]
        assert sum(computed) == 2
        assert_byte_identical(result.campaign_dir, serial_dir)

    def test_hang_times_out_and_heals(self, tmp_path, serial_dir):
        result = run_fleet(
            make_config(tmp_path, chaos=parse_chaos("hang:1"), timeout=3.0)
        )
        assert result.status == "complete" and result.exit_code == EXIT_COMPLETE
        first = round_attempts(result, 0)
        assert first[1]["outcome"] == "timeout" and first[1]["chaos"] == "hang"
        assert_byte_identical(result.campaign_dir, serial_dir)

    def test_truncated_results_classify_corrupt_and_heal(self, tmp_path, serial_dir):
        result = run_fleet(make_config(tmp_path, chaos=parse_chaos("truncate:0")))
        assert result.status == "complete" and result.exit_code == EXIT_COMPLETE
        first = round_attempts(result, 0)
        assert first[0]["outcome"] == "corrupt-artifacts"
        assert first[0]["returncode"] == 0  # exited cleanly; artifacts damned it
        assert "results.json" in first[0]["detail"]
        assert_byte_identical(result.campaign_dir, serial_dir)

    def test_every_retry_is_ledgered(self, tmp_path, serial_dir):
        # Two faults on the same shard span (ordinal 0 in round 0, then its
        # heal retry at ordinal 2): the ledger must show all three attempts.
        result = run_fleet(
            make_config(tmp_path, chaos=parse_chaos("kill:0,kill:2"), max_retries=3)
        )
        assert result.status == "complete"
        assert result.rounds == 3
        payload = json.loads(result.ledger_path.read_text())
        outcomes = [
            a["outcome"] for r in payload["rounds"] for a in r["attempts"]
        ]
        assert outcomes.count("crash") == 2
        counters = payload["metrics"]["counter"]
        assert counters["fleet.attempts{outcome=crash}"] == 2
        assert counters["fleet.rounds"] == 3
        # Backoff doubles round over round.
        backoffs = [r["backoff_seconds"] for r in payload["rounds"]]
        assert backoffs[0] == 0.0 and backoffs[1] > 0
        assert backoffs[2] == pytest.approx(min(backoffs[1] * 2, FAST["backoff_cap"]))
        assert_byte_identical(result.campaign_dir, serial_dir)


class TestReadOnce:
    """The controller reads each accepted shard directory once per run:
    acceptance, the ledger, store ingest and every merge (each heal round's
    included) share the ``ArtifactDir`` acceptance returned."""

    @pytest.mark.parametrize("mode", ["cold", "store", "heal"])
    def test_each_accepted_shard_is_parsed_and_decoded_once(self, tmp_path, monkeypatch, serial_dir, mode):
        parse, decode = artifacts.parse_artifact_dir, artifacts.point_from_record
        parsed, decoded = Counter(), Counter()

        def counting_parse(directory, *args, **kwargs):
            parsed[Path(directory)] += 1
            return parse(directory, *args, **kwargs)

        def counting_decode(record, source):
            decoded[(Path(source).parent, record["index"])] += 1
            return decode(record, source)

        monkeypatch.setattr(artifacts, "parse_artifact_dir", counting_parse)
        monkeypatch.setattr(artifacts, "point_from_record", counting_decode)
        overrides = {
            "cold": {},
            "store": {"store": tmp_path / "store.sqlite"},
            "heal": {"chaos": parse_chaos("kill:0")},
        }[mode]
        result = run_fleet(make_config(tmp_path, **overrides))
        assert result.status == "complete" and result.exit_code == EXIT_COMPLETE
        assert result.rounds == (2 if mode == "heal" else 1)
        assert_byte_identical(result.campaign_dir, serial_dir)

        payload = json.loads(result.ledger_path.read_text())
        accepted = [a for r in payload["rounds"] for a in r["attempts"] if a["accepted"]]
        delivered = {Path(a["artifact_dir"]): a["points_delivered"] for a in accepted}
        assert sum(delivered.values()) == SMOKE.n_points
        assert parsed == Counter({directory: 1 for directory in delivered})
        assert set(decoded.values()) == {1}
        per_dir = Counter(directory for directory, _ in decoded)
        assert per_dir == Counter(delivered)


class TestWorkerArgv:
    def test_every_worker_resumes_and_carries_no_profile(self, tmp_path):
        # Every sweep records its profile, so no worker needs a flag for it;
        # every worker resumes, so reruns and heal rounds reuse records.
        shard = ShardSpec(0, 2, ((0, 2),))
        for trace in (False, True):
            argv = _worker_argv(make_config(tmp_path, trace=trace), shard)
            assert "--resume" in argv and "--profile" not in argv
            assert ("--trace-out" in argv) == trace


class TestAcceptance:
    def test_malformed_record_is_rejected_and_rerun(self, tmp_path, serial_dir, monkeypatch):
        # A worker that exits cleanly but leaves a malformed record must not
        # be accepted: the acceptance gate decodes every record, and the
        # next heal round re-runs the shard.
        from repro.fleet import controller

        validate = controller.validate_shard_dir
        damaged = []

        def damage_first_shard(directory, spec):
            if not damaged:
                path = Path(directory) / "results.json"
                payload = json.loads(path.read_text())
                payload["points"][0]["seed"] = 12.7
                path.write_text(json.dumps(payload))
                damaged.append(directory)
            return validate(directory, spec)

        monkeypatch.setattr(controller, "validate_shard_dir", damage_first_shard)
        result = run_fleet(make_config(tmp_path))
        assert result.status == "complete" and result.rounds == 2
        rejected = [a for a in round_attempts(result, 0) if not a["accepted"]]
        assert len(rejected) == 1
        assert rejected[0]["outcome"] == "corrupt-artifacts"
        assert "seed 12.7 is not an integer" in rejected[0]["detail"]
        assert_byte_identical(result.campaign_dir, serial_dir)

    @pytest.mark.parametrize(
        "path, value",
        [(("profile", "simulate"), "fast"), (("metrics", "counter", "kernel.dense_ticks"), 1.5)],
        ids=["text-profile", "float-counter"],
    )
    def test_malformed_telemetry_is_rejected_and_rerun(self, tmp_path, serial_dir, monkeypatch, path, value):
        # A malformed telemetry block is damage like a malformed record: the
        # shard is rejected and re-run, and the ledger folds only the
        # accepted shards' kernel counters.
        from repro.fleet import controller

        validate = controller.validate_shard_dir
        damaged = []

        def damage_first_shard(directory, spec):
            if not damaged:
                manifest_path = Path(directory) / "manifest.json"
                manifest = json.loads(manifest_path.read_text())
                block = manifest["execution"]["telemetry"]
                for key in path[:-1]:
                    block = block[key]
                block[path[-1]] = value
                manifest_path.write_text(json.dumps(manifest))
                damaged.append(directory)
            return validate(directory, spec)

        monkeypatch.setattr(controller, "validate_shard_dir", damage_first_shard)
        result = run_fleet(make_config(tmp_path))
        assert result.status == "complete" and result.rounds == 2
        rejected = [a for a in round_attempts(result, 0) if not a["accepted"]]
        assert len(rejected) == 1
        assert rejected[0]["outcome"] == "corrupt-artifacts"
        assert "execution.telemetry" in rejected[0]["detail"]
        assert_byte_identical(result.campaign_dir, serial_dir)
        ledger = json.loads(result.ledger_path.read_text())["metrics"]["counter"]
        serial = json.loads((serial_dir / "manifest.json").read_text())["execution"]["telemetry"]
        kernel = {name: count for name, count in serial["metrics"]["counter"].items() if name.startswith("kernel.")}
        assert {name: count for name, count in ledger.items() if name.startswith("kernel.")} == kernel


class TestGracefulDegradation:
    def test_budget_exhaustion_writes_partial_artifacts(self, tmp_path):
        # Worker 0 is killed and there are zero heal rounds: the fleet must
        # salvage worker 1's points, leave heal.json, and exit 4.
        result = run_fleet(
            make_config(tmp_path, chaos=parse_chaos("kill:0"), max_retries=0)
        )
        assert result.status == "partial" and result.exit_code == EXIT_PARTIAL
        assert result.missing  # the killed span
        partial_dir = result.campaign_dir / "partial"
        results = json.loads((partial_dir / "results.json").read_text())
        delivered = {record["index"] for record in results["points"]}
        assert delivered and delivered.isdisjoint(result.missing)
        assert len(delivered) + len(result.missing) == SMOKE.n_points
        manifest = json.loads((partial_dir / "manifest.json").read_text())
        assert sorted(manifest["partial"]["missing"]) == sorted(result.missing)
        # The heal plan is the hand-off for the next run.
        heal = json.loads((result.campaign_dir / HEAL_JSON).read_text())
        assert sorted(heal["missing"]) == sorted(result.missing)
        ledger = json.loads(result.ledger_path.read_text())
        assert ledger["status"] == "partial" and ledger["exit_code"] == EXIT_PARTIAL

    def test_partial_salvage_merges_with_the_heal_shards(self, tmp_path, serial_dir):
        # Finishing a budget-exhausted campaign by hand: run heal.json's
        # commands, then merge partial/ with the shards they produced.
        result = run_fleet(
            make_config(tmp_path, chaos=parse_chaos("kill:0"), max_retries=0)
        )
        assert result.exit_code == EXIT_PARTIAL
        heal = json.loads((result.campaign_dir / HEAL_JSON).read_text())
        for command in heal["commands"]:
            assert command["argv"][:3] == ["python", "-m", "repro.run"]
            assert main(command["argv"][3:]) == 0
        merged = tmp_path / "merged"
        heal_dirs = [command["artifact_dir"] for command in heal["commands"]]
        partial_dir = str(result.campaign_dir / "partial")
        assert main(["sweep", "merge", partial_dir, *heal_dirs, "--out", str(merged)]) == 0
        assert_byte_identical(merged / "smoke", serial_dir)

    def test_total_loss_still_writes_ledger_and_heal(self, tmp_path):
        result = run_fleet(
            make_config(tmp_path, chaos=parse_chaos("kill:0,kill:1"), max_retries=0)
        )
        assert result.exit_code == EXIT_PARTIAL
        assert sorted(result.missing) == list(range(SMOKE.n_points))
        assert not (result.campaign_dir / "partial").exists()
        assert (result.campaign_dir / HEAL_JSON).exists()
        assert result.ledger_path.exists()


class TestFleetCli:
    def test_fleet_cli_complete_and_status(self, tmp_path, capsys, serial_dir):
        out = tmp_path / "cli"
        code = main(
            [
                "fleet",
                "smoke",
                "--workers",
                "2",
                "--out",
                str(out),
                "--backoff-base",
                "0.05",
                "--chaos",
                "kill:1",
            ]
        )
        assert code == EXIT_COMPLETE
        assert_byte_identical(out / "smoke", serial_dir)
        assert main(["fleet", "status", str(out / "smoke")]) == 0
        text = capsys.readouterr().out
        assert "fleet smoke: complete (exit 0)" in text
        assert "chaos=kill" in text

    def test_fleet_cli_partial_exit_code(self, tmp_path):
        code = main(
            [
                "fleet",
                "smoke",
                "--workers",
                "2",
                "--out",
                str(tmp_path / "cli"),
                "--max-retries",
                "0",
                "--backoff-base",
                "0.05",
                "--chaos",
                "kill:0",
            ]
        )
        assert code == EXIT_PARTIAL

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main(["fleet", "no-such-campaign", "--out", str(tmp_path)]) == 2
        assert main(["fleet", "smoke", "--chaos", "explode:0"]) == 2
        assert main(["fleet", "smoke", "--workers", "0"]) == 2
        assert main(["fleet", "status", str(tmp_path / "nowhere")]) == 2
        assert main(["fleet"]) == 2
        capsys.readouterr()
