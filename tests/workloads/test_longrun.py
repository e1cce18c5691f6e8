"""Tests for the long-horizon workloads, the scenario registry, and the runner."""

import pytest

from repro.core.pels import LINK_REG_ENABLE, LINK_WINDOW_BASE, LINK_WINDOW_STRIDE
from repro.run import main as run_main
from repro.workloads.longrun import (
    BurstStreamConfig,
    DutyCycledLoggingConfig,
    WatchdogRecoveryConfig,
    prepare_burst_stream,
    prepare_duty_cycled_logging,
    prepare_watchdog_recovery,
)
from repro.workloads.registry import (
    register_scenario,
    run_prepared,
    run_scenario,
    scenario,
    scenario_names,
    scenarios,
)


def _run(prepared, horizon):
    """Drive a prepared workload to ``horizon``; return its stats."""
    return run_prepared(prepared, horizon).outcome(horizon).stats


class TestDutyCycledLogging:
    def test_loop_runs_autonomously(self):
        config = DutyCycledLoggingConfig(
            sample_period_cycles=1_000, horizon_cycles=50_000, words_per_readout=4
        )
        stats = _run(prepare_duty_cycled_logging(config), config.horizon_cycles)
        expected_samples = config.horizon_cycles // config.sample_period_cycles
        assert stats["samples_taken"] in (expected_samples - 1, expected_samples)
        assert stats["readouts_completed"] == stats["samples_taken"]
        assert stats["words_logged"] == config.words_per_readout * stats["readouts_completed"]
        assert stats["duty_updates"] == stats["samples_taken"]
        assert stats["watchdog_kicks"] == stats["readouts_completed"]
        assert stats["watchdog_barks"] == 0
        assert stats["cpu_interrupts"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DutyCycledLoggingConfig(sample_period_cycles=10)
        with pytest.raises(ValueError):
            DutyCycledLoggingConfig(horizon_cycles=100)


class TestBurstStream:
    def test_bursts_stream_to_memory_without_loss(self):
        config = BurstStreamConfig(
            burst_period_cycles=5_000, horizon_cycles=60_000, words_per_burst=16
        )
        stats = _run(prepare_burst_stream(config), config.horizon_cycles)
        expected_bursts = config.horizon_cycles // config.burst_period_cycles
        assert stats["bursts_completed"] in (expected_bursts - 1, expected_bursts)
        assert stats["words_streamed"] == config.words_per_burst * stats["bursts_completed"]
        assert stats["rx_overflows"] == 0
        assert stats["watchdog_kicks"] == stats["bursts_completed"]
        assert stats["watchdog_barks"] == 0
        assert stats["cpu_interrupts"] == 0

    def test_burst_must_fit_in_period(self):
        with pytest.raises(ValueError):
            BurstStreamConfig(burst_period_cycles=100, words_per_burst=64, spi_cycles_per_word=4)


class TestWatchdogRecovery:
    def test_pels_restarts_the_stalled_loop(self):
        config = WatchdogRecoveryConfig(
            sample_period_cycles=1_000, stall_after_samples=4, horizon_cycles=60_000
        )
        stats = _run(prepare_watchdog_recovery(config), config.horizon_cycles)
        assert stats["samples_before_stall"] == config.stall_after_samples
        assert stats["watchdog_barks"] == 1
        assert stats["watchdog_bites"] == 0
        assert stats["recovered"] is True
        assert stats["samples_total"] > stats["samples_before_stall"]
        assert stats["cpu_interrupts"] == 0

    def test_without_recovery_link_the_watchdog_bites(self):
        # Differential control: the same stall with the bark->timer.start
        # recovery link (link 2) disabled through the PELS configuration
        # window ends in a bite, and the loop never samples again.
        config = WatchdogRecoveryConfig(
            sample_period_cycles=1_000, stall_after_samples=4, horizon_cycles=60_000
        )
        prepared = prepare_watchdog_recovery(config)
        prepared.soc.pels.bus_write(LINK_WINDOW_BASE + 2 * LINK_WINDOW_STRIDE + LINK_REG_ENABLE, 0)
        stats = _run(prepared, config.horizon_cycles)
        assert stats["watchdog_bites"] == 1
        assert stats["recovered"] is False
        assert stats["samples_total"] == stats["samples_before_stall"]


class TestRegistry:
    def test_expected_scenarios_are_registered(self):
        names = scenario_names()
        for expected in (
            "always-on-monitor",
            "burst-spi-dma",
            "duty-cycled-logging",
            "threshold-pels",
            "watchdog-recovery",
        ):
            assert expected in names

    def test_specs_carry_descriptions_and_horizons(self):
        for spec in scenarios():
            assert spec.description
            assert spec.default_horizon_cycles >= 1

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("always-on-monitor", "dup", 100)(lambda horizon, dense: {})

    def test_run_scenario_returns_stats_dict(self):
        stats = run_scenario("watchdog-recovery", horizon_cycles=30_000)
        assert stats["recovered"] is True
        assert stats["horizon_cycles"] == 30_000

    def test_dense_and_event_agree(self):
        dense = run_scenario("always-on-monitor", horizon_cycles=20_000, dense=True)
        event = run_scenario("always-on-monitor", horizon_cycles=20_000, dense=False)
        assert dense == event


class TestRunnerCli:
    def test_list(self, capsys):
        assert run_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "duty-cycled-logging" in out
        assert "watchdog-recovery" in out

    def test_missing_scenario_is_usage_error(self):
        assert run_main([]) == 2

    def test_unknown_scenario_is_an_error(self, capsys):
        assert run_main(["no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_run_prints_stats(self, capsys):
        assert run_main(["watchdog-recovery", "--horizon-cycles", "30000"]) == 0
        out = capsys.readouterr().out
        assert "30000 cycles simulated" in out
        assert "recovered" in out
        assert "wall-clock" in out

    def test_horizon_ms_conversion(self, capsys):
        # 0.5 ms at 40 MHz = 20000 cycles.
        code = run_main(
            ["watchdog-recovery", "--horizon-ms", "0.5", "--frequency-mhz", "40", "--dense"]
        )
        assert code == 0
        assert "20000 cycles simulated" in capsys.readouterr().out

    @pytest.mark.parametrize("frequency_mhz", ["0", "-55"], ids=["zero", "negative"])
    def test_non_positive_frequency_rejected(self, frequency_mhz, capsys):
        # A negative frequency used to clamp the horizon to 1 cycle and run.
        with pytest.raises(SystemExit) as excinfo:
            run_main(["always-on-monitor", "--horizon-ms", "1", "--frequency-mhz", frequency_mhz])
        assert excinfo.value.code == 2
        assert "error: --frequency-mhz must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--horizon-cycles", "0", "--horizon-cycles must be at least 1"),
            ("--horizon-ms", "0", "--horizon-ms must be positive"),
        ],
        ids=["cycles", "ms"],
    )
    def test_non_positive_horizon_is_a_usage_error(self, flag, value, message, capsys):
        # Exit 2 is the usage/validation code; 1 means a --compare mismatch.
        with pytest.raises(SystemExit) as excinfo:
            run_main(["always-on-monitor", flag, value])
        assert excinfo.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_compare_mode_reports_speedup_and_agreement(self, capsys):
        assert run_main(["always-on-monitor", "--horizon-cycles", "20000", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "WARNING" not in out
