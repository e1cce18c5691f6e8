"""Fleet-wide warm starts: shared plan-cache provisioning and aggregation.

The fleet's contract with the snapshot cache: every worker (and every
heal-round re-run) is pointed at ONE shared cache directory — explicit
``--plan-cache`` or the auto-provisioned ``<out>/<campaign>/plan-cache`` —
and the ledger folds each accepted shard's cache + kernel counters into
fleet-wide totals.  A warm fleet must produce
artifacts byte-identical to a cold one, and ``--no-plan-cache`` must put
everything back to always-cold.
"""

import filecmp
import json
from pathlib import Path

import pytest

from repro.fleet import EXIT_COMPLETE, FleetConfig, run_fleet
from repro.fleet.controller import _worker_argv
from repro.fleet.ledger import render_ledger
from repro.run import main
from repro.sweep.campaign import ShardSpec
from repro.sweep.campaigns import campaign

SMOKE = campaign("smoke")

FAST = dict(backoff_base=0.05, backoff_cap=0.2, poll_interval=0.02)


def make_config(tmp_path: Path, **overrides) -> FleetConfig:
    options = dict(
        campaign="smoke", workers=2, out=tmp_path / "fleet", timeout=30.0, **FAST
    )
    options.update(overrides)
    return FleetConfig(**options)


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory) -> Path:
    """Reference artifacts from a plain serial, cache-less run."""
    out = tmp_path_factory.mktemp("serial")
    assert main(["sweep", "smoke", "--jobs", "1", "--out", str(out)]) == 0
    return out / "smoke"


def assert_byte_identical(campaign_dir: Path, serial_dir: Path) -> None:
    for name in ("results.json", "results.csv"):
        assert filecmp.cmp(campaign_dir / name, serial_dir / name, shallow=False), (
            f"{name} differs from the serial reference"
        )


def ledger_payload(result) -> dict:
    return json.loads(result.ledger_path.read_text())


class TestWorkerArgv:
    SHARD = ShardSpec(index=0, count=2)

    def test_plan_cache_flag_is_threaded(self, tmp_path):
        config = make_config(tmp_path, plan_cache=tmp_path / "cache")
        argv = _worker_argv(config, self.SHARD)
        index = argv.index("--plan-cache")
        assert argv[index + 1] == str(tmp_path / "cache")

    def test_no_worker_argv_carries_profile(self, tmp_path):
        # Every sweep records its profile, so no worker needs a flag for it.
        for trace in (False, True):
            for enabled in (False, True):
                config = make_config(
                    tmp_path, plan_cache=tmp_path / "cache", plan_cache_enabled=enabled, trace=trace
                )
                argv = _worker_argv(config, self.SHARD)
                assert "--profile" not in argv
                assert ("--trace-out" in argv) == trace

    def test_disabled_cache_drops_both_flags(self, tmp_path):
        config = make_config(
            tmp_path, plan_cache=tmp_path / "cache", plan_cache_enabled=False
        )
        argv = _worker_argv(config, self.SHARD)
        assert "--plan-cache" not in argv and "--profile" not in argv


class TestProvisioningAndAggregation:
    def test_cold_then_warm_fleet_shares_one_cache(self, tmp_path, serial_dir, capsys):
        cold = run_fleet(make_config(tmp_path, out=tmp_path / "cold"))
        assert cold.status == "complete" and cold.exit_code == EXIT_COMPLETE
        assert_byte_identical(cold.campaign_dir, serial_dir)
        # Auto-provisioned next to the campaign artifacts, and populated.
        cache_dir = cold.campaign_dir / "plan-cache"
        assert cache_dir.is_dir()
        snaps = sorted(cache_dir.rglob("*.snap"))
        assert snaps, "cold fleet workers published no snapshots"
        payload = ledger_payload(cold)
        assert payload["config"]["plan_cache"] == str(cache_dir)
        counters = payload["metrics"]["counter"]
        assert counters["cache.write"] == len(snaps)
        assert "kernel.plan_builds" in counters  # shard telemetry reached the ledger

        # A second fleet pointed at the same cache serves every point warm,
        # still byte-identical.
        warm = run_fleet(
            make_config(tmp_path, out=tmp_path / "warm", plan_cache=cache_dir)
        )
        assert warm.status == "complete"
        assert_byte_identical(warm.campaign_dir, serial_dir)
        warm_counters = ledger_payload(warm)["metrics"]["counter"]
        assert warm_counters["cache.hit"] == SMOKE.n_points
        assert warm_counters["cache.miss"] == 0
        assert warm_counters.get("cache.error", 0) == 0

        # fleet status renders the aggregated totals.
        capsys.readouterr()
        assert main(["fleet", "status", str(warm.campaign_dir)]) == 0
        text = capsys.readouterr().out
        assert f"plan cache ({cache_dir})" in text
        assert f"{SMOKE.n_points} hits, 0 misses" in text

    def test_render_ledger_plan_cache_line(self, tmp_path):
        result = run_fleet(make_config(tmp_path))
        text = render_ledger(ledger_payload(result))
        assert "plan cache (" in text
        assert "writes" in text

    def test_no_plan_cache_reverts_to_cold_starts(self, tmp_path):
        result = run_fleet(make_config(tmp_path, plan_cache_enabled=False))
        assert result.status == "complete"
        assert not (result.campaign_dir / "plan-cache").exists()
        payload = ledger_payload(result)
        assert payload["config"]["plan_cache"] is None
        counters = payload["metrics"]["counter"]
        assert not any(key.startswith("cache.") for key in counters)
        # Kernel counters reach the ledger with or without a cache.
        assert "kernel.dense_ticks" in counters
        assert "plan cache (" not in render_ledger(payload)
