"""Tests for the power model, technology profile, scenarios, and reporting."""

import pytest

from repro.power.components import EnergyCoefficients, TECH_65NM_LP
from repro.power.model import COMPONENTS, PowerBreakdown, PowerModel, diff_activity
from repro.power.report import format_breakdown, format_figure5, summarize_totals
from repro.power.scenarios import (
    ISO_FREQUENCY_HZ,
    ISO_LATENCY_IBEX_HZ,
    ISO_LATENCY_PELS_HZ,
    latency_cycles_budget,
    measure_idle_power,
    measure_linking_power,
    run_figure5,
)


class TestTechnologyProfile:
    def test_default_profile_is_65nm_tt(self):
        assert TECH_65NM_LP.name == "tsmc65lp"
        assert TECH_65NM_LP.corner == "TT"
        assert TECH_65NM_LP.voltage_v == pytest.approx(1.2)

    def test_voltage_scaling_is_quadratic_for_dynamic_energy(self):
        scaled = TECH_65NM_LP.scaled(0.6)
        ratio = scaled.energies.sram_read_pj / TECH_65NM_LP.energies.sram_read_pj
        assert ratio == pytest.approx(0.25)
        # Leakage figures are untouched.
        assert scaled.energies.leakage_ram_uw == TECH_65NM_LP.energies.leakage_ram_uw

    def test_voltage_scaling_rejects_non_positive(self):
        with pytest.raises(ValueError):
            TECH_65NM_LP.scaled(0)

    def test_leakage_total(self):
        energies = EnergyCoefficients()
        with_pels = energies.leakage_total_uw(include_pels=True)
        without = energies.leakage_total_uw(include_pels=False)
        assert with_pels - without == pytest.approx(energies.leakage_pels_uw)


class TestPowerModel:
    def test_empty_activity_gives_background_plus_leakage(self):
        model = PowerModel()
        breakdown = model.estimate({}, window_cycles=1000, frequency_hz=55e6, pels_present=False)
        assert breakdown.component("Processor") == 0
        assert breakdown.component("Leakage") > 0
        assert breakdown.component("Others") > 0
        assert breakdown.total_uw > 0

    def test_processor_power_scales_with_active_cycles(self):
        model = PowerModel()
        low = model.estimate({("ibex", "active_cycles"): 10}, 1000, 55e6)
        high = model.estimate({("ibex", "active_cycles"): 100}, 1000, 55e6)
        assert high.component("Processor") > low.component("Processor")

    def test_frequency_scales_dynamic_power(self):
        model = PowerModel()
        activity = {("ibex", "active_cycles"): 100}
        fast = model.estimate(activity, 1000, 55e6)
        slow = model.estimate(activity, 1000, 27.5e6)
        assert fast.component("Processor") == pytest.approx(2 * slow.component("Processor"))
        # Leakage does not scale with frequency.
        assert fast.component("Leakage") == pytest.approx(slow.component("Leakage"))

    def test_pels_component_zero_when_absent(self):
        model = PowerModel()
        activity = {("pels", "link_busy_cycles"): 50}
        present = model.estimate(activity, 100, 55e6, pels_present=True)
        absent = model.estimate(activity, 100, 55e6, pels_present=False)
        assert present.component("PELS") > 0
        assert absent.component("PELS") == 0

    def test_invalid_window_rejected(self):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.estimate({}, 0, 55e6)
        with pytest.raises(ValueError):
            model.estimate({}, 10, 0)

    def test_breakdown_helpers(self):
        breakdown = PowerBreakdown(
            scenario="x", frequency_hz=55e6, window_cycles=100, components_uw={"Processor": 10.0, "RAM": 30.0}
        )
        other = PowerBreakdown(
            scenario="y", frequency_hz=55e6, window_cycles=100, components_uw={"Processor": 20.0, "RAM": 60.0}
        )
        assert breakdown.total_uw == pytest.approx(40.0)
        assert breakdown.ratio_to(other) == pytest.approx(2.0)
        assert breakdown.component_ratio_to(other, "RAM") == pytest.approx(2.0)
        assert breakdown.as_dict()["Total"] == pytest.approx(40.0)
        assert breakdown.window_seconds == pytest.approx(100 / 55e6)

    def test_ratio_guards_against_zero(self):
        zero = PowerBreakdown(scenario="z", frequency_hz=1e6, window_cycles=1, components_uw={})
        other = PowerBreakdown(scenario="o", frequency_hz=1e6, window_cycles=1, components_uw={"RAM": 1.0})
        with pytest.raises(ZeroDivisionError):
            zero.ratio_to(other)

    def test_diff_activity(self):
        before = {("a", "x"): 5, ("b", "y"): 2}
        after = {("a", "x"): 8, ("b", "y"): 2, ("c", "z"): 1}
        delta = diff_activity(before, after)
        assert delta == {("a", "x"): 3, ("c", "z"): 1}


class TestScenarios:
    @pytest.fixture(scope="class")
    def figure5(self):
        return run_figure5(n_events=3, idle_cycles=600)

    def test_operating_points_match_paper(self):
        assert ISO_LATENCY_PELS_HZ == pytest.approx(27e6)
        assert ISO_LATENCY_IBEX_HZ == pytest.approx(55e6)
        assert ISO_FREQUENCY_HZ == pytest.approx(55e6)

    def test_latency_budget_helper(self):
        assert latency_cycles_budget(27e6) == 13
        assert latency_cycles_budget(55e6) == 27

    def test_idle_measurement_structure(self):
        result = measure_idle_power("pels", 27e6, idle_cycles=200)
        assert result.phase == "idle"
        assert result.window_cycles == 200
        assert result.total_uw > 0

    def test_linking_measurement_structure(self):
        result = measure_linking_power("ibex", 55e6, n_events=2)
        assert result.phase == "linking"
        assert result.events_measured == 2
        assert result.window_cycles > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_idle_power("arm", 55e6, idle_cycles=10)
        with pytest.raises(ValueError):
            measure_linking_power("arm", 55e6, n_events=1)

    def test_figure5_has_all_eight_bars(self, figure5):
        assert len(figure5.results) == 8

    def test_linking_iso_latency_ratio_close_to_paper(self, figure5):
        """Headline result: ~2.5x less power when PELS handles the linking event."""
        assert figure5.ratio("linking_iso_latency") == pytest.approx(2.5, rel=0.2)

    def test_idle_iso_latency_ratio_close_to_paper(self, figure5):
        assert figure5.ratio("idle_iso_latency") == pytest.approx(1.5, rel=0.2)

    def test_linking_iso_frequency_ratio_close_to_paper(self, figure5):
        assert figure5.ratio("linking_iso_freq") == pytest.approx(1.6, rel=0.2)

    def test_memory_system_power_strongly_reduced(self, figure5):
        """Paper: 3.7x / 4.3x less power drawn around the memory system."""
        assert figure5.ram_ratio("linking_iso_freq") >= 3.5
        assert figure5.ram_ratio("linking_iso_latency") >= 3.5

    def test_pels_component_small_compared_to_processor_it_replaces(self, figure5):
        linking_pels = figure5.get("linking_iso_freq_pels")
        linking_ibex = figure5.get("linking_iso_freq_ibex")
        assert linking_pels.breakdown.component("PELS") < 0.5 * linking_ibex.breakdown.component("Processor")

    def test_report_formatting(self, figure5):
        text = format_figure5(figure5)
        assert "Linking (iso-latency)" in text
        assert "paper: 2.5x" in text
        single = format_breakdown(figure5.get("idle_iso_freq_ibex").breakdown)
        assert "Total" in single
        summary = summarize_totals([figure5.get("idle_iso_freq_ibex").breakdown])
        assert "uW" in summary

    def test_component_names_cover_figure5_legend(self):
        assert set(COMPONENTS) == {"Others", "PELS", "Processor", "RAM", "Interconnect", "Leakage"}
