"""The metrics registry and the one telemetry fold."""

import pytest

from repro.obs.metrics import KERNEL_STAT_KEYS, MetricsRegistry, fold_telemetry
from repro.obs.profile import SWEEP_PHASES


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
        stats = dict.fromkeys(KERNEL_STAT_KEYS, 0)
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


def _block(profile, counters, walls=()):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter(name).inc(value)
    for value in walls:
        registry.histogram("wall").observe(value)
    return {"profile": profile, "metrics": registry.as_dict()}


class TestFoldTelemetry:
    def test_profiles_sum_and_metrics_merge(self):
        folded = fold_telemetry(
            [
                _block({"expand": 1.0}, {"kernel.dense_ticks": 0, "sweep.points{kind=computed}": 2}, [2.0]),
                _block({"simulate": 2.0, "expand": 0.5}, {"kernel.dense_ticks": 7}, [1.0, 4.0]),
            ]
        )
        assert folded["profile"] == {**dict.fromkeys(SWEEP_PHASES, 0.0), "expand": 1.5, "simulate": 2.0}
        assert folded["metrics"]["counter"] == {"kernel.dense_ticks": 7, "sweep.points{kind=computed}": 2}
        wall = folded["metrics"]["histogram"]["wall"]
        assert (wall["count"], wall["sum"], wall["min"], wall["max"]) == (3, 7.0, 1.0, 4.0)

    def test_no_blocks_fold_to_an_empty_block(self):
        assert fold_telemetry([]) == {
            "profile": dict.fromkeys(SWEEP_PHASES, 0.0),
            "metrics": {"counter": {}, "histogram": {}},
        }

    def test_prefix_keeps_matching_metrics_in_the_given_registry(self):
        ledger = MetricsRegistry()
        ledger.counter("fleet.rounds").inc()
        block = _block({"simulate": 1.0}, {"kernel.dense_ticks": 5, "batch.rounds": 3}, [1.0])
        fold_telemetry([block, block], ledger, prefix="kernel.")
        assert ledger.as_dict() == {"counter": {"fleet.rounds": 1, "kernel.dense_ticks": 10}, "histogram": {}}
