"""The metrics registry and the canonical kernel CounterSet."""

import pytest

from repro.obs.metrics import KERNEL_STAT_KEYS, CounterSet, MetricsRegistry


class TestCounterSet:
    def test_starts_zeroed_over_the_declared_keys(self):
        counters = CounterSet(("a", "b"))
        assert counters == {"a": 0, "b": 0}

    def test_defaults_to_the_canonical_kernel_keys(self):
        assert tuple(CounterSet()) == KERNEL_STAT_KEYS

    def test_increment_idiom_works(self):
        counters = CounterSet(("hits",))
        counters["hits"] += 1
        counters["hits"] += 2
        assert counters["hits"] == 3

    def test_undeclared_key_raises_at_the_increment_site(self):
        counters = CounterSet(("hits",))
        with pytest.raises(KeyError, match="misses"):
            counters["misses"] = 1

    def test_compares_equal_to_plain_dicts(self):
        counters = CounterSet(("a",))
        counters["a"] = 7
        assert counters == {"a": 7}

    def test_snapshot_is_a_detached_copy(self):
        counters = CounterSet(("a",))
        snap = counters.snapshot()
        counters["a"] = 5
        assert snap == {"a": 0}
        assert type(snap) is dict

    def test_diff_reports_what_a_region_added(self):
        counters = CounterSet(("a", "b"))
        counters["a"] = 2
        snap = counters.snapshot()
        counters["a"] = 5
        counters["b"] = 1
        assert counters.diff(snap) == {"a": 3, "b": 1}

    def test_reset_zeroes_in_place_with_the_same_keys(self):
        counters = CounterSet(("a",))
        counters["a"] = 9
        counters.reset()
        assert counters == {"a": 0}
        counters["a"] += 1  # key set survived the reset

    def test_add_accumulates_shared_keys_only(self):
        counters = CounterSet(("a", "b"))
        counters.add({"a": 3, "unknown": 99})
        counters.add({"a": 2, "b": 1})
        assert counters == {"a": 5, "b": 1}


class TestMetricsRegistry:
    def test_counter_is_create_or_return(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.as_dict()["counter"] == {"hits": 3}

    def test_labels_render_sorted_into_the_name(self):
        registry = MetricsRegistry()
        registry.counter("points", {"kind": "computed", "a": 1}).inc(4)
        assert registry.as_dict()["counter"] == {"points{a=1,kind=computed}": 4}

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.histogram("wall").observe(value)
        summary = registry.as_dict()["histogram"]["wall"]
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_absorb_kernel_stats_prefixes_kernel(self):
        registry = MetricsRegistry()
        stats = CounterSet(KERNEL_STAT_KEYS)
        stats["dense_ticks"] = 4
        registry.absorb_kernel_stats(stats)
        counters = registry.as_dict()["counter"]
        assert counters["kernel.dense_ticks"] == 4
        assert set(counters) == {f"kernel.{key}" for key in KERNEL_STAT_KEYS}

    def test_merge_dict_folds_a_worker_payload(self):
        worker = MetricsRegistry()
        worker.counter("hits").inc(2)
        worker.histogram("wall").observe(1.0)
        worker.histogram("wall").observe(5.0)
        parent = MetricsRegistry()
        parent.counter("hits").inc(1)
        parent.histogram("wall").observe(3.0)
        parent.merge_dict(worker.as_dict())
        merged = parent.as_dict()
        assert merged["counter"]["hits"] == 3
        assert set(merged) == {"counter", "histogram"}
        hist = merged["histogram"]["wall"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0
        assert hist["max"] == 5.0

    def test_merge_dict_skips_empty_histograms(self):
        parent = MetricsRegistry()
        parent.merge_dict({"histogram": {"wall": {"count": 0}}})
        assert parent.as_dict()["histogram"]["wall"]["count"] == 0

    def test_as_dict_is_deterministically_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.as_dict()["counter"]) == ["alpha", "zeta"]
