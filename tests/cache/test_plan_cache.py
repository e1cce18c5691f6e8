"""The on-disk plan/snapshot cache: keys, hits, atomicity, silent fallback.

The contract under test: a :class:`~repro.cache.PlanCache` can make a run
faster or leave it untouched, never wrong — every corrupt, truncated, or
stale entry is counted, noted, evicted, and answered with the next-best
candidate or ``None`` (a cold start), and publishes are atomic and
best-effort.
"""

import os

import pytest

from repro.cache import CacheError, PlanCache, group_cache_key
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.sweep import CampaignSpec, execute_campaign, results_payload
from repro.workloads.registry import scenario

HORIZONS = [30_000, 60_000]


@pytest.fixture()
def prepared():
    instance = scenario("duty-cycled-logging").prepare(list(HORIZONS), False)
    instance.simulator.step(HORIZONS[0])
    return instance


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(tmp_path / "plan-cache")


KEY = group_cache_key("duty-cycled-logging", False, {}, HORIZONS)


class TestGroupCacheKey:
    def test_key_is_computable_without_a_prepared_instance(self):
        assert len(KEY) == 64 and set(KEY) <= set("0123456789abcdef")

    def test_key_covers_every_identity_dimension(self):
        base = group_cache_key("s", False, {"a": 1}, [10, 20])
        assert group_cache_key("s", False, {"a": 1}, [10, 20]) == base
        assert group_cache_key("other", False, {"a": 1}, [10, 20]) != base
        assert group_cache_key("s", True, {"a": 1}, [10, 20]) != base
        assert group_cache_key("s", False, {"a": 2}, [10, 20]) != base
        assert group_cache_key("s", False, {"a": 1}, [10, 30]) != base
        assert group_cache_key("s", False, {"a": 1}, [10, 20, 30]) != base

    def test_param_order_does_not_matter(self):
        assert group_cache_key("s", False, {"a": 1, "b": 2}, [10]) == group_cache_key(
            "s", False, {"b": 2, "a": 1}, [10]
        )

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        import repro.cache.plan_cache as module

        before = group_cache_key("s", False, {}, [10])
        monkeypatch.setattr(module, "SNAPSHOT_SCHEMA_VERSION", SNAPSHOT_SCHEMA_VERSION + 1)
        assert group_cache_key("s", False, {}, [10]) != before


class TestPublishAndLookup:
    def test_round_trip(self, cache, prepared):
        assert cache.publish(KEY, prepared, HORIZONS[0]) is True
        restored = cache.lookup(KEY, HORIZONS[0])
        assert restored is not None and restored.base_tick == HORIZONS[0]
        assert restored.prepared.simulator.current_cycle == HORIZONS[0]
        assert cache.counters.as_dict() == {"hits": 1, "misses": 0, "writes": 1, "errors": 0}

    def test_empty_cache_is_a_counted_miss(self, cache):
        assert cache.lookup(KEY, HORIZONS[0]) is None
        assert cache.counters.misses == 1

    def test_lookup_prefers_the_deepest_candidate(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        prepared.simulator.step(HORIZONS[1] - HORIZONS[0])
        cache.publish(KEY, prepared, HORIZONS[1])
        assert cache.lookup(KEY, HORIZONS[1]).base_tick == HORIZONS[1]
        assert cache.lookup(KEY, HORIZONS[1] - 1).base_tick == HORIZONS[0]

    def test_exact_lookup_ignores_shallower_entries(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        assert cache.lookup(KEY, HORIZONS[1], exact=True) is None
        assert cache.lookup(KEY, HORIZONS[0], exact=True).base_tick == HORIZONS[0]

    def test_publish_skips_existing_entries(self, cache, prepared):
        assert cache.publish(KEY, prepared, HORIZONS[0]) is True
        assert cache.publish(KEY, prepared, HORIZONS[0]) is False
        assert cache.counters.writes == 1

    def test_publish_rejects_cycle_zero(self, cache, prepared):
        assert cache.publish(KEY, prepared, 0) is False
        assert cache.counters.writes == 0

    def test_publish_is_atomic(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        entry_dir = cache.root / KEY[:2] / KEY
        assert sorted(p.name for p in entry_dir.iterdir()) == [f"{HORIZONS[0]}.snap"]
        assert not list(cache.root.rglob("*.tmp"))

    def test_unpicklable_publish_is_noted_not_raised(self, cache, prepared):
        class Poison:
            def __reduce__(self):
                raise TypeError("no")

        prepared.poison = Poison()
        assert cache.publish(KEY, prepared, HORIZONS[0]) is False
        assert cache.counters.errors == 1
        assert any("not picklable" in note for note in cache.notes)


class TestSilentFallback:
    @pytest.fixture()
    def snap_path(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        return cache.root / KEY[:2] / KEY / f"{HORIZONS[0]}.snap"

    def _expect_fallback(self, cache, note_fragment):
        fresh = PlanCache(cache.root)  # clean counters, same directory
        assert fresh.lookup(KEY, HORIZONS[0]) is None
        assert fresh.counters.misses == 1
        assert fresh.counters.errors == 1
        assert any(note_fragment in note for note in fresh.notes)
        return fresh

    def test_corrupt_entry(self, cache, snap_path):
        snap_path.write_bytes(b"this is not a snapshot")
        self._expect_fallback(cache, "bad magic")

    def test_truncated_entry(self, cache, snap_path):
        snap_path.write_bytes(snap_path.read_bytes()[:50])
        self._expect_fallback(cache, "truncated")

    def test_stale_schema_entry(self, cache, snap_path):
        current = snap_path.read_bytes()

        def restamp(version):
            snap_path.write_bytes(
                current.replace(
                    b'"schema_version":%d' % SNAPSHOT_SCHEMA_VERSION,
                    b'"schema_version":%d' % version,
                )
            )

        # A newer schema; schema 1, the format written before the snapshot
        # header stopped carrying the schedule plan; schema 2, whose pickled
        # PELS and SCMs have no shared SCM traffic total; and schema 3, whose
        # pickled PELS has no passive action masks.
        for version in (SNAPSHOT_SCHEMA_VERSION + 1, 1, 2, 3):
            restamp(version)
            self._expect_fallback(cache, "stale snapshot schema")
        # The cold start a stale entry degrades to writes the same records
        # as a run with no cache at all.
        restamp(1)
        spec = CampaignSpec(
            name="stale-schema-test",
            description="the one batch group KEY names",
            scenario="duty-cycled-logging",
            grid={"horizon_cycles": tuple(HORIZONS)},
        )
        reference = results_payload(execute_campaign(spec, jobs=1))
        warm = execute_campaign(spec, jobs=1, plan_cache=str(cache.root))
        assert results_payload(warm) == reference
        assert warm.cache["errors"] == 1 and warm.cache["hits"] == 0
        assert any("stale snapshot schema" in note for note in warm.cache["notes"])

    def test_unusable_entries_are_evicted_so_publish_can_heal(
        self, cache, prepared, snap_path
    ):
        snap_path.write_bytes(b"garbage")
        self._expect_fallback(cache, "bad magic")
        assert not snap_path.exists()
        assert cache.publish(KEY, prepared, HORIZONS[0]) is True
        fresh = PlanCache(cache.root)
        assert fresh.lookup(KEY, HORIZONS[0]).base_tick == HORIZONS[0]
        assert fresh.counters.errors == 0

    def test_corrupt_deep_entry_falls_back_to_shallower(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        prepared.simulator.step(HORIZONS[1] - HORIZONS[0])
        cache.publish(KEY, prepared, HORIZONS[1])
        deep = cache.root / KEY[:2] / KEY / f"{HORIZONS[1]}.snap"
        deep.write_bytes(b"garbage")
        fresh = PlanCache(cache.root)
        restored = fresh.lookup(KEY, HORIZONS[1])
        assert restored is not None and restored.base_tick == HORIZONS[0]
        assert fresh.counters.as_dict() == {"hits": 1, "misses": 0, "writes": 0, "errors": 1}

    def test_mislabelled_entry_is_rejected(self, cache, prepared, snap_path):
        os.rename(snap_path, snap_path.with_name("12345.snap"))
        self._expect_fallback(cache, "restored at cycle")

    def test_non_snapshot_files_are_ignored(self, cache, prepared, snap_path):
        (snap_path.parent / "README").write_text("not a snapshot")
        (snap_path.parent / "noint.snap").write_text("bad stem")
        fresh = PlanCache(cache.root)
        assert fresh.lookup(KEY, HORIZONS[0]).base_tick == HORIZONS[0]
        assert fresh.counters.errors == 0

    def test_notes_deduplicate(self, cache, snap_path):
        blob = snap_path.read_bytes()
        fresh = PlanCache(cache.root)
        for _ in range(3):
            snap_path.write_bytes(b"garbage")
            assert fresh.lookup(KEY, HORIZONS[0]) is None
        assert fresh.counters.errors == 3
        assert len(fresh.notes) == 1
        snap_path.write_bytes(blob)  # restore for tmp_path hygiene


class TestStats:
    def test_stats_payload_shape(self, cache, prepared):
        cache.publish(KEY, prepared, HORIZONS[0])
        cache.lookup(KEY, HORIZONS[0])
        cache.lookup("0" * 64, HORIZONS[0])
        payload = cache.stats()
        assert payload["path"] == str(cache.root)
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert payload["writes"] == 1 and payload["errors"] == 0
        assert payload["notes"] == []

    def test_cache_error_is_exported(self):
        assert issubclass(CacheError, Exception)
