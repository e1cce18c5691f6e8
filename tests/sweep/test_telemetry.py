"""Sweep telemetry: byte-identity, profiling, tracing, stats, shard merge.

The observability contract (``docs/observability.md``):

* **Neutrality** — ``--trace-out`` must not change a single byte of
  ``results.json`` or ``results.csv``; telemetry lives only in the
  manifest's ``execution.telemetry`` block, the trace file, and stderr.
* **Always on** — every run records the phase profile and metrics, traced
  or not, and ``stats`` renders them.
* **Trace validity** — every trace the CLI writes (per-run and merged)
  conforms to the ``repro-trace/1`` schema and loads in Perfetto.
* **Worker drainage** — a chunk executed without an inherited tracer (the
  forked-pool case) installs its own and ships events back through
  :class:`~repro.sweep.execute.ChunkOutcome`, never leaking a global.
* **One fold** — the serial, pooled, merged and fleet paths fold the same
  telemetry blocks with one function, so they report the same counters; a
  malformed block is damage every reader rejects.
"""

import json
import os

import pytest

from repro.fleet import FleetConfig, run_fleet
from repro.obs import tracing
from repro.obs.metrics import KERNEL_STAT_KEYS
from repro.obs.profile import SWEEP_PHASES
from repro.obs.traceio import validate_trace_file
from repro.run import _resolve_trace_path, main
from repro.sweep import CampaignSpec, batch_groups, campaign, expand_campaign
from repro.sweep.execute import execute_campaign, run_point_groups

RESULT_ARTIFACTS = ("results.json", "results.csv")


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert tracing.TRACER is None
    yield
    tracing.uninstall()


def _run_sweep(out_dir, *extra):
    assert main(["sweep", "smoke", "--out", str(out_dir), *extra]) == 0
    return out_dir / "smoke"


def _kernel_counters(outcome):
    return {name for name in outcome.telemetry["metrics"]["counter"] if name.startswith("kernel.")}


def _manifest(campaign_dir):
    return json.loads((campaign_dir / "manifest.json").read_text(encoding="utf-8"))


class TestTelemetryNeutrality:
    def test_result_artifacts_are_byte_identical(self, tmp_path):
        plain = _run_sweep(tmp_path / "plain")
        traced = _run_sweep(tmp_path / "traced", "--trace-out", "trace.json")
        for artifact in RESULT_ARTIFACTS:
            assert (traced / artifact).read_bytes() == (plain / artifact).read_bytes()

    def test_plain_manifest_carries_the_profile_and_kernel_counters(self, tmp_path, capsys):
        plain = _run_sweep(tmp_path / "plain")
        telemetry = _manifest(plain)["execution"]["telemetry"]
        assert set(telemetry) == {"profile", "metrics"}
        assert set(SWEEP_PHASES) <= set(telemetry["profile"])
        assert telemetry["profile"]["simulate"] > 0
        assert telemetry["profile"]["write"] > 0
        counters = telemetry["metrics"]["counter"]
        assert {f"kernel.{key}" for key in KERNEL_STAT_KEYS} <= set(counters)
        assert "batch.rounds" in counters
        capsys.readouterr()
        assert main(["stats", str(plain)]) == 0
        assert "simulate" in capsys.readouterr().out


class TestTraceAndProfileArtifacts:
    def test_trace_file_validates_and_is_pointed_at_by_the_manifest(self, tmp_path):
        traced = _run_sweep(tmp_path / "out", "--trace-out", "trace.json")
        telemetry = _manifest(traced)["execution"]["telemetry"]
        trace_block = telemetry["trace"]
        document = validate_trace_file(traced / trace_block["file"])
        spans = [event for event in document["traceEvents"] if event["ph"] != "M"]
        assert trace_block["events"] == len(spans)
        names = {event["name"] for event in spans}
        # smoke batches its points, so the trace shows enrolment + batch.run
        # lanes; kernel spans come from inside the batch instances.
        assert {"sweep.campaign", "sweep.enroll", "batch.run", "kernel.plan"} <= names

    def test_profile_covers_the_sweep_phases_and_metrics_the_kernel(self, tmp_path):
        traced = _run_sweep(tmp_path / "out")
        telemetry = _manifest(traced)["execution"]["telemetry"]
        profile = telemetry["profile"]
        assert set(profile) <= set(SWEEP_PHASES)
        assert profile["simulate"] > 0
        assert profile["write"] > 0
        counters = telemetry["metrics"]["counter"]
        for key in KERNEL_STAT_KEYS:
            assert f"kernel.{key}" in counters
        assert counters["sweep.points{kind=computed}"] == 4

    def test_summary_line_reports_throughput_and_trace_path(self, tmp_path, capsys):
        _run_sweep(tmp_path / "out", "--trace-out", "trace.json")
        out = capsys.readouterr().out
        assert "points/s" in out
        assert str(tmp_path / "out" / "smoke" / "trace.json") in out
        # The phase table is rendered by ``stats``, not at the end of a run.
        assert "phase" not in out

    def test_trace_out_with_a_directory_part_is_taken_literally(self, tmp_path):
        target = tmp_path / "elsewhere" / "t.json"
        target.parent.mkdir()
        traced = _run_sweep(tmp_path / "out", "--trace-out", str(target))
        validate_trace_file(target)
        trace_block = _manifest(traced)["execution"]["telemetry"]["trace"]
        assert trace_block["file"] == str(target.resolve())

    def test_resolve_trace_path(self, tmp_path):
        assert _resolve_trace_path("t.json", tmp_path) == tmp_path / "t.json"
        nested = os.path.join("sub", "t.json")
        resolved = _resolve_trace_path(nested, tmp_path)
        assert resolved.parts[-2:] == ("sub", "t.json")
        assert resolved.parts[: len(tmp_path.parts)] != tmp_path.parts


class TestStatsCommand:
    def test_stats_renders_profile_metrics_and_trace(self, tmp_path, capsys):
        traced = _run_sweep(tmp_path / "out", "--trace-out", "trace.json")
        capsys.readouterr()
        assert main(["stats", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke: 4 points" in out
        assert "points/s" in out
        assert "simulate" in out
        assert "kernel.plan_builds" in out
        assert "sweep.point_wall_seconds" in out
        assert "spans" in out and "kernel" in out

    def test_stats_without_telemetry_explains_and_exits_1(self, tmp_path, capsys):
        # Only a manifest written before telemetry was always on lacks it.
        plain = _run_sweep(tmp_path / "out")
        manifest = _manifest(plain)
        del manifest["execution"]["telemetry"]
        (plain / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", str(plain)]) == 1
        assert "no telemetry recorded" in capsys.readouterr().out

    def test_stats_on_a_non_numeric_wall_exits_2(self, tmp_path, capsys):
        plain = _run_sweep(tmp_path / "out")
        manifest = _manifest(plain)
        manifest["execution"]["wall_seconds"] = "n/a"
        (plain / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", str(plain)]) == 2
        assert "wall_seconds is not a number" in capsys.readouterr().err

    def test_stats_on_a_non_numeric_n_points_exits_2(self, tmp_path, capsys):
        plain = _run_sweep(tmp_path / "out")
        manifest = _manifest(plain)
        manifest["n_points"] = "abc"
        (plain / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", str(plain)]) == 2
        err = capsys.readouterr().err
        assert f"error: {plain / 'manifest.json'}: n_points is not a number: 'abc'" in err

    def test_stats_on_a_non_campaign_dir_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_stats_on_a_corrupt_trace_exits_2(self, tmp_path, capsys):
        traced = _run_sweep(tmp_path / "out", "--trace-out", "trace.json")
        (traced / "trace.json").write_text("{not json")
        capsys.readouterr()
        assert main(["stats", str(traced)]) == 2
        assert "invalid" in capsys.readouterr().err


class TestShardedTraceMerge:
    def _shard_dirs(self, tmp_path):
        dirs = []
        for index in range(2):
            _run_sweep(
                tmp_path,
                "--shard",
                f"{index}/2",
                "--trace-out",
                "trace.json",
            )
            dirs.append(tmp_path / "smoke" / f"shard-{index}-of-2")
        return dirs

    def test_merge_stitches_shard_traces_into_lanes(self, tmp_path, capsys):
        dirs = self._shard_dirs(tmp_path)
        assert main(["sweep", "merge", *map(str, dirs), "--out", str(tmp_path / "merged")]) == 0
        merged_dir = tmp_path / "merged" / "smoke"
        document = validate_trace_file(merged_dir / "trace.json")
        lanes = [
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert sorted(lanes) == ["shard-0-of-2/sweep", "shard-1-of-2/sweep"]
        telemetry = _manifest(merged_dir)["execution"]["telemetry"]
        assert telemetry["trace"]["file"] == "trace.json"
        # Merged profile folds both shards' phase timers.
        assert telemetry["profile"]["simulate"] > 0
        assert telemetry["metrics"]["counter"]["sweep.points{kind=computed}"] == 4
        assert str(merged_dir / "trace.json") in capsys.readouterr().out

    def test_stats_reads_the_merged_directory(self, tmp_path, capsys):
        dirs = self._shard_dirs(tmp_path)
        assert main(["sweep", "merge", *map(str, dirs), "--out", str(tmp_path / "merged")]) == 0
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "merged" / "smoke")]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke: 4 points" in out
        assert "spans" in out


class TestWorkerOwnedTracer:
    """The forked-pool contract, exercised directly: ``run_point_groups``
    called with ``trace=True`` and no usable inherited tracer must install
    its own and drain it into the outcome — for batched groups and for the
    solo points of a scenario without a prepare hook alike."""

    SOLO_SPEC = CampaignSpec(
        name="telemetry-solo",
        description="always-on-monitor has no prepare hook: its points run solo",
        scenario="always-on-monitor",
        grid={"horizon_cycles": (10_000, 20_000)},
    )

    def _points(self):
        return expand_campaign(campaign("smoke"))[:2]

    def _solo_groups(self):
        return batch_groups(expand_campaign(self.SOLO_SPEC))

    def test_solo_groups_drain_an_owned_tracer(self):
        outcome = run_point_groups(self._solo_groups(), trace=True)
        assert tracing.TRACER is None  # the owned tracer never leaks
        assert len(outcome.results) == 2
        names = {event["name"] for event in outcome.trace_events}
        assert "sweep.point" in names and "kernel.plan" in names
        assert outcome.telemetry["profile"]["simulate"] > 0
        assert _kernel_counters(outcome) == {f"kernel.{key}" for key in KERNEL_STAT_KEYS}

    def test_solo_groups_defer_to_an_inherited_tracer(self):
        tracer = tracing.install()
        outcome = run_point_groups(self._solo_groups(), trace=True)
        assert outcome.trace_events == []  # parent drains its own tracer
        assert {event["name"] for event in tracer.events} >= {"sweep.point"}
        assert tracing.TRACER is tracer

    def test_run_point_groups_drains_an_owned_tracer(self):
        groups = batch_groups(self._points())
        outcome = run_point_groups(groups, trace=True)
        assert tracing.TRACER is None
        assert len(outcome.results) == 2
        names = {event["name"] for event in outcome.trace_events}
        assert "sweep.enroll" in names and "batch.run" in names
        assert outcome.telemetry["profile"]["prepare"] > 0
        assert outcome.telemetry["profile"]["simulate"] > 0
        assert outcome.telemetry["metrics"]["counter"]["batch.rounds"] > 0

    def test_profile_only_chunks_carry_no_trace_events(self):
        outcome = run_point_groups(batch_groups(self._points()), trace=False)
        assert outcome.trace_events == []
        assert outcome.telemetry["profile"]["simulate"] > 0

    def test_every_chunk_reports_phases_and_kernel_stats(self):
        outcome = run_point_groups(batch_groups(self._points()))
        assert outcome.trace_events == []
        profile, counters = outcome.telemetry["profile"], outcome.telemetry["metrics"]["counter"]
        assert profile["prepare"] > 0
        assert profile["simulate"] > 0
        assert _kernel_counters(outcome) == {f"kernel.{key}" for key in KERNEL_STAT_KEYS}
        assert counters["kernel.dense_ticks"] > 0
        assert counters["batch.rounds"] > 0

    def test_a_campaign_traces_its_pool_workers_exactly_when_a_tracer_is_installed(self):
        # No trace switch: an installed tracer is what makes pool workers
        # own a tracer and ship their events back (on a single-core host the
        # campaign runs in process and the parent's tracer sees them).
        with tracing.capture() as tracer:
            traced = execute_campaign(campaign("smoke"), jobs=2)
        names = {event["name"] for event in tracer.events + traced.trace_events}
        assert {"sweep.campaign", "sweep.enroll", "batch.run"} <= names
        assert execute_campaign(campaign("smoke"), jobs=2).trace_events == []


#: The ``smoke`` campaign's scheduler counters (``tests/sim/test_kernel_stats.py``
#: pins the kernel ones), which every hop must report unchanged.
SMOKE_COUNTERS = {
    "kernel.next_event_calls": 1_574,
    "kernel.dense_ticks": 563,
    "kernel.spans_skipped": 131,
    "kernel.cycles_skipped": 119_437,
    "kernel.plan_builds": 2,
    "batch.rounds": 563,
}


def _scheduler_counters(campaign_dir):
    counters = _manifest(campaign_dir)["execution"]["telemetry"]["metrics"]["counter"]
    return {name: value for name, value in counters.items() if name.startswith(("kernel.", "batch."))}


def _merge_two_shards(tmp_path):
    for index in range(2):
        _run_sweep(tmp_path / "shards", "--shard", f"{index}/2")
    return [tmp_path / "shards" / "smoke" / f"shard-{index}-of-2" for index in range(2)]


class TestOneFold:
    def test_every_hop_reports_the_same_counters(self, tmp_path):
        assert _scheduler_counters(_run_sweep(tmp_path / "serial")) == SMOKE_COUNTERS
        assert _scheduler_counters(_run_sweep(tmp_path / "pool", "--jobs", "2")) == SMOKE_COUNTERS
        shards = _merge_two_shards(tmp_path)
        assert main(["sweep", "merge", *map(str, shards), "--out", str(tmp_path / "merged")]) == 0
        assert _scheduler_counters(tmp_path / "merged" / "smoke") == SMOKE_COUNTERS
        fleet = run_fleet(
            FleetConfig(campaign="smoke", workers=2, out=tmp_path / "fleet", timeout=30.0, poll_interval=0.02)
        )
        assert fleet.status == "complete"
        assert _scheduler_counters(fleet.campaign_dir) == SMOKE_COUNTERS
        ledger = json.loads(fleet.ledger_path.read_text())["metrics"]["counter"]
        kernel = {name: value for name, value in SMOKE_COUNTERS.items() if name.startswith("kernel.")}
        assert {name: value for name, value in ledger.items() if name.startswith("kernel.")} == kernel

    def test_a_fully_resumed_run_keeps_every_counter_at_zero(self, tmp_path):
        _run_sweep(tmp_path)
        resumed = _run_sweep(tmp_path, "--resume")
        assert _scheduler_counters(resumed) == dict.fromkeys(SMOKE_COUNTERS, 0)
        counters = _manifest(resumed)["execution"]["telemetry"]["metrics"]["counter"]
        assert counters["sweep.points{kind=reused}"] == 4
        assert counters["sweep.points{kind=failed}"] == 0


def _text_profile(telemetry):
    telemetry["profile"]["simulate"] = "fast"


def _float_counter(telemetry):
    telemetry["metrics"]["counter"]["kernel.dense_ticks"] = 1.5


def _damage_telemetry(campaign_dir, damage):
    manifest = _manifest(campaign_dir)
    damage(manifest["execution"]["telemetry"])
    (campaign_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("damage", [_text_profile, _float_counter], ids=["text-profile", "float-counter"])
class TestMalformedTelemetry:
    """A telemetry block that is present but malformed is damage: the
    artifact reader rejects it naming the manifest, so no fold sees it."""

    def test_merge_exits_2(self, tmp_path, capsys, damage):
        shards = _merge_two_shards(tmp_path)
        _damage_telemetry(shards[1], damage)
        capsys.readouterr()
        assert main(["sweep", "merge", *map(str, shards), "--out", str(tmp_path / "merged")]) == 2
        assert f"error: {shards[1] / 'manifest.json'}: execution.telemetry" in capsys.readouterr().err
        assert not (tmp_path / "merged").exists()

    def test_resume_exits_2(self, tmp_path, capsys, damage):
        campaign_dir = _run_sweep(tmp_path)
        _damage_telemetry(campaign_dir, damage)
        capsys.readouterr()
        assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 2
        assert "execution.telemetry" in capsys.readouterr().err

    def test_stats_exits_2(self, tmp_path, capsys, damage):
        campaign_dir = _run_sweep(tmp_path)
        _damage_telemetry(campaign_dir, damage)
        capsys.readouterr()
        assert main(["stats", str(campaign_dir)]) == 2
        assert "execution.telemetry" in capsys.readouterr().err
