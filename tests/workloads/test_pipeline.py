"""Tests for the multi-link pipeline workload and the seeded fault configs."""

import pytest

from repro.workloads.longrun import seeded_watchdog_recovery_config
from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline
from repro.workloads.registry import run_prepared, run_scenario


def _run(config):
    """Run the pipeline to its configured horizon; return its stats."""
    horizon = config.horizon_cycles
    return run_prepared(prepare_multi_link_pipeline(config), horizon).outcome(horizon).stats


class TestMultiLinkPipeline:
    def test_pipeline_chains_all_three_links_autonomously(self):
        stats = _run(MultiLinkPipelineConfig(timer_period_cycles=150, horizon_cycles=5_000))
        assert stats["timer_overflows"] > 0
        assert stats["adc_conversions"] > 0
        assert stats["uart_bytes"] > 0
        # Each pipeline event blinks the GPIO pad blink_count + 1 times
        # (the loop body runs once before the loop counter is consulted).
        assert stats["gpio_toggles"] >= stats["uart_bytes"]
        assert stats["cpu_interrupts"] == 0  # the CPU never wakes

    def test_clock_ratio_slows_the_service_chain(self):
        fast = _run(
            MultiLinkPipelineConfig(timer_period_cycles=600, clock_ratio=1, horizon_cycles=30_000)
        )
        slow = _run(
            MultiLinkPipelineConfig(timer_period_cycles=600, clock_ratio=8, horizon_cycles=30_000)
        )
        # The sampling pace is unchanged, but every conversion/byte takes 8x
        # as many base-clock cycles, so fewer pipeline events complete.
        assert fast["timer_overflows"] == slow["timer_overflows"]
        assert slow["uart_bytes"] <= fast["uart_bytes"]

    def test_dense_and_event_kernels_agree(self):
        event = run_scenario("multi-link-pipeline", 8_000, params={"clock_ratio": 2})
        dense = run_scenario("multi-link-pipeline", 8_000, dense=True, params={"clock_ratio": 2})
        assert event == dense

    def test_config_validation(self):
        with pytest.raises(ValueError, match="period"):
            MultiLinkPipelineConfig(timer_period_cycles=10)
        with pytest.raises(ValueError, match="clock_ratio"):
            MultiLinkPipelineConfig(clock_ratio=0)
        with pytest.raises(ValueError, match="horizon"):
            MultiLinkPipelineConfig(timer_period_cycles=600, horizon_cycles=800)


class TestSeededWatchdogRecovery:
    def test_same_seed_same_config(self):
        assert seeded_watchdog_recovery_config(7) == seeded_watchdog_recovery_config(7)

    def test_different_seeds_explore_different_faults(self):
        configs = {seeded_watchdog_recovery_config(seed) for seed in range(16)}
        assert len(configs) > 1

    def test_stall_always_fits_the_horizon(self):
        for seed in range(16):
            config = seeded_watchdog_recovery_config(seed, horizon_cycles=60_000)
            assert (config.stall_after_samples + 4) * config.sample_period_cycles <= 60_000

    def test_every_seed_is_valid_down_to_tiny_horizons(self):
        # A pool worker must never crash a campaign on config validation: any
        # horizon >= 500 cycles must derive a valid point from every seed.
        for horizon in (500, 1_000, 10_000, 11_000, 60_000):
            for seed in range(16):
                seeded_watchdog_recovery_config(seed, horizon_cycles=horizon)

    def test_seed_param_flows_through_the_registry(self):
        stats = run_scenario("watchdog-recovery", 200_000, params={"seed": 5})
        config = seeded_watchdog_recovery_config(5, horizon_cycles=200_000)
        assert stats["sample_period_cycles"] == config.sample_period_cycles
        assert stats["stall_after_samples"] == config.stall_after_samples
        assert stats["recovered"] is True

    def test_seed_and_explicit_params_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_scenario("watchdog-recovery", 200_000, params={"seed": 1, "stall_after_samples": 3})
