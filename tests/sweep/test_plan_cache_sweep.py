"""Sweep execution against a plan cache (--plan-cache): warm byte-identity.

The acceptance oracle of the cache-fed executor: for every registry
campaign, a warm run against a populated cache must produce artifacts
byte-identical to a cold run and to a run with no cache at all — while
actually using the cache (hit counters in
``execution.cache``).  Around that: partial caches (missing and corrupt
entries) must degrade to simulation and heal the cache, the manifest must
record warm-run provenance, and the CLI flag must round-trip.
"""

import json

import pytest

from repro.run import main
from repro.sweep import (
    CampaignSpec,
    campaign,
    campaign_names,
    execute_campaign,
    results_payload,
    write_artifacts,
)
from repro.sweep.artifacts import manifest_payload

#: Registry campaigns small enough for per-test execution; fleet-scale's
#: 1008 points are covered by one single identity pass.
FAST_CAMPAIGNS = sorted(set(campaign_names()) - {"fleet-scale"})

SMALL_SPEC = CampaignSpec(
    name="plan-cache-test",
    description="small batchable campaign for the --plan-cache tests",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _payload_bytes(result):
    return json.dumps(results_payload(result), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def reference_and_cache(tmp_path_factory):
    """Per-campaign: the no-cache reference payload plus a populated cache
    directory (computed once per campaign)."""
    root = tmp_path_factory.mktemp("plan-caches")
    state = {}

    def get(name):
        if name not in state:
            reference = _payload_bytes(execute_campaign(campaign(name), jobs=1))
            cache_dir = root / name
            cold = execute_campaign(campaign(name), jobs=1, plan_cache=str(cache_dir))
            assert _payload_bytes(cold) == reference
            assert cold.cache["writes"] > 0 and cold.cache["hits"] == 0
            state[name] = (reference, cache_dir)
        return state[name]

    return get


class TestWarmByteIdentity:
    @pytest.mark.parametrize("name", FAST_CAMPAIGNS)
    def test_registry_campaigns_warm_identical(self, name, reference_and_cache):
        """The acceptance criterion: warm == cold == uncached, bit for bit,
        for every registry campaign."""
        reference, cache_dir = reference_and_cache(name)
        warm = execute_campaign(campaign(name), jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["hits"] == warm.n_points
        assert warm.cache["misses"] == 0 and warm.cache["errors"] == 0

    def test_fleet_scale_warm_identical(self, reference_and_cache):
        reference, cache_dir = reference_and_cache("fleet-scale")
        warm = execute_campaign(campaign("fleet-scale"), jobs=2, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["hits"] == warm.n_points == 1008

    def test_artifact_files_are_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        cold_paths = write_artifacts(SMALL_SPEC, cold, tmp_path / "cold")
        warm_paths = write_artifacts(SMALL_SPEC, warm, tmp_path / "warm")
        for key in ("results_json", "results_csv"):
            assert cold_paths[key].read_bytes() == warm_paths[key].read_bytes()


class TestPartialCache:
    def _populate(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        return _payload_bytes(cold), cache_dir

    def test_missing_entries_are_simulated_and_healed(self, tmp_path):
        reference, cache_dir = self._populate(tmp_path)
        snaps = sorted(cache_dir.rglob("*.snap"))
        assert len(snaps) == 4
        snaps[0].unlink()
        snaps[-1].unlink()
        partial = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(partial) == reference
        assert partial.cache["writes"] == 2  # the gaps were republished
        assert len(sorted(cache_dir.rglob("*.snap"))) == 4
        healed = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(healed) == reference
        assert healed.cache["hits"] == 4 and healed.cache["writes"] == 0

    def test_corrupt_entries_fall_back_with_a_note(self, tmp_path):
        reference, cache_dir = self._populate(tmp_path)
        snaps = sorted(cache_dir.rglob("*.snap"))
        snaps[0].write_bytes(b"garbage")
        snaps[1].write_bytes(snaps[1].read_bytes()[:40])
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["errors"] == 2
        assert any("bad magic" in note for note in warm.cache["notes"])
        assert any("truncated" in note for note in warm.cache["notes"])

    def test_non_batchable_campaign_ignores_the_cache(self, tmp_path):
        spec = CampaignSpec(
            name="plan-cache-monitor-test",
            description="always-on-monitor has no batch hook: cache must idle",
            scenario="always-on-monitor",
            grid={"horizon_cycles": (10_000, 20_000)},
        )
        reference = _payload_bytes(execute_campaign(spec, jobs=1))
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            result = execute_campaign(spec, jobs=1, plan_cache=cache_dir)
            assert _payload_bytes(result) == reference
            assert result.cache["errors"] == 0 and result.cache["writes"] == 0


class TestManifestProvenance:
    def test_execution_cache_block(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        cold_block = manifest_payload(SMALL_SPEC, cold)["execution"]["cache"]
        warm_block = manifest_payload(SMALL_SPEC, warm)["execution"]["cache"]
        assert cold_block["path"] == warm_block["path"] == cache_dir
        assert cold_block["hits"] == 0 and cold_block["writes"] == 4
        assert warm_block["hits"] == 4 and warm_block["misses"] == 0
        assert warm_block["notes"] == []

    def test_no_cache_no_block(self):
        result = execute_campaign(SMALL_SPEC, jobs=1)
        assert result.cache is None
        assert "cache" not in manifest_payload(SMALL_SPEC, result)["execution"]

    def test_cache_counters_reach_telemetry(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        counters = warm.telemetry["metrics"]["counter"]
        assert counters["cache.hit"] == 4
        assert counters["cache.miss"] == 0
        # A served group's kernel counters come from its deepest restore,
        # which carries the cold run's history (plan_builds >= 1).
        assert counters.get("kernel.plan_builds", 0) >= 1

    def test_composes_with_jobs_and_chunk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        reference = _payload_bytes(execute_campaign(SMALL_SPEC, jobs=1))
        cold = execute_campaign(SMALL_SPEC, jobs=2, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=2, plan_cache=cache_dir)
        assert _payload_bytes(cold) == _payload_bytes(warm) == reference
        assert warm.cache["hits"] == 4  # summed across pool tasks


class TestCli:
    def test_plan_cache_flag_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "plan-cache"
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        args = ["sweep", "smoke", "--plan-cache", str(cache_dir)]
        assert main(args + ["--out", str(cold_dir)]) == 0
        assert main(args + ["--out", str(warm_dir)]) == 0
        out = capsys.readouterr().out
        # Cold line counts the probe misses; warm line counts one hit per point.
        assert "cache 0 hits/" in out
        assert "cache 4 hits/0 miss" in out
        for name in ("results.json", "results.csv"):
            cold_bytes = (cold_dir / "smoke" / name).read_bytes()
            assert cold_bytes == (warm_dir / "smoke" / name).read_bytes()
        warm_manifest = json.loads((warm_dir / "smoke" / "manifest.json").read_text())
        assert warm_manifest["execution"]["cache"]["hits"] == 4

    def test_stats_renders_cache_counters(self, tmp_path, capsys):
        cache_dir = tmp_path / "plan-cache"
        out_dir = tmp_path / "out"
        args = ["sweep", "smoke", "--plan-cache", str(cache_dir), "--out", str(out_dir)]
        for _ in ("cold", "warm"):
            assert main(args) == 0
        capsys.readouterr()
        assert main(["stats", str(out_dir / "smoke")]) == 0
        out = capsys.readouterr().out
        assert f"plan cache {cache_dir}" in out
        assert "4 hits" in out
