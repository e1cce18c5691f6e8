"""Mapping of simulated activity to the Figure 5 power components.

The breakdown follows the paper's legend: **Processor**, **RAM**,
**Interconnect**, **PELS**, **Others**, and **Leakage**.  Power is the
average over an observation window of ``window_cycles`` at ``frequency_hz``:
dynamic energy of every counted event divided by the window duration, plus
the per-block leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.power.components import TechnologyProfile, TECH_65NM_LP

# Components plotted in Figure 5, in stacking order.
COMPONENTS = ("Others", "PELS", "Processor", "RAM", "Interconnect", "Leakage")

ActivitySnapshot = Mapping[Tuple[str, str], int]


@dataclass
class PowerBreakdown:
    """Average power of one scenario, split by Figure 5 component."""

    scenario: str
    frequency_hz: float
    window_cycles: int
    components_uw: Dict[str, float] = field(default_factory=dict)

    @property
    def total_uw(self) -> float:
        """Total average power in microwatts."""
        return sum(self.components_uw.values())

    def component(self, name: str) -> float:
        """Power of one component in microwatts (0 if absent)."""
        return self.components_uw.get(name, 0.0)

    @property
    def window_seconds(self) -> float:
        """Observation window length in seconds."""
        return self.window_cycles / self.frequency_hz

    def ratio_to(self, other: "PowerBreakdown") -> float:
        """How many times more power ``other`` draws than this breakdown."""
        if self.total_uw == 0:
            raise ZeroDivisionError("cannot compute a ratio against zero power")
        return other.total_uw / self.total_uw

    def component_ratio_to(self, other: "PowerBreakdown", name: str) -> float:
        """Per-component power ratio ``other / self``."""
        own = self.component(name)
        if own == 0:
            raise ZeroDivisionError(f"component {name!r} has zero power in {self.scenario!r}")
        return other.component(name) / own

    def as_dict(self) -> Dict[str, float]:
        """Plain mapping of component name to microwatts (plus ``Total``)."""
        data = dict(self.components_uw)
        data["Total"] = self.total_uw
        return data


class PowerModel:
    """Activity-based average-power estimator."""

    def __init__(self, technology: TechnologyProfile = TECH_65NM_LP) -> None:
        self.technology = technology

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _get(activity: ActivitySnapshot, component: str, event: str) -> int:
        return activity.get((component, event), 0)

    def _peripheral_accesses(self, activity: ActivitySnapshot) -> int:
        peripherals = ("gpio", "spi", "adc", "uart", "i2c", "pwm", "wdt", "timer")
        total = 0
        for (component, event), count in activity.items():
            if component in peripherals and event in ("bus_reads", "bus_writes"):
                total += count
        return total

    def _peripheral_active_cycles(self, activity: ActivitySnapshot) -> int:
        peripherals = ("gpio", "spi", "adc", "uart", "i2c", "pwm", "wdt", "timer")
        active_events = ("active_cycles", "shifting_cycles", "converting_cycles", "tx_cycles", "bus_cycles")
        total = 0
        for (component, event), count in activity.items():
            if component in peripherals and event in active_events:
                total += count
        return total

    # ----------------------------------------------------------------- estimate

    def estimate(
        self,
        activity: ActivitySnapshot,
        window_cycles: int,
        frequency_hz: float,
        scenario: str = "scenario",
        pels_present: bool = True,
    ) -> PowerBreakdown:
        """Compute the component power breakdown for one observation window."""
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        energy = self.technology.energies
        window_seconds = window_cycles / frequency_hz

        # Dynamic energy per component, in picojoules.
        processor_pj = (
            self._get(activity, "ibex", "active_cycles") * energy.cpu_active_cycle_pj
            + self._get(activity, "ibex", "sleep_cycles") * energy.cpu_sleep_cycle_pj
        )
        ram_pj = (
            self._get(activity, "sram", "reads") * energy.sram_read_pj
            + self._get(activity, "sram", "writes") * energy.sram_write_pj
            + self._get(activity, "sram", "instruction_fetches") * energy.cpu_ifetch_pj
            + window_cycles * energy.sram_idle_cycle_pj
        )
        interconnect_pj = (
            self._get(activity, "apb", "grants") * energy.apb_transfer_pj
            + self._get(activity, "apb", "busy_cycles") * energy.apb_busy_cycle_pj
            + (
                self._get(activity, "soc_interconnect", "memory_requests")
                + self._get(activity, "soc_interconnect", "bridge_requests")
            )
            * energy.soc_interconnect_transfer_pj
        )
        pels_pj = 0.0
        if pels_present:
            pels_pj = (
                self._get(activity, "pels", "link_busy_cycles") * energy.pels_link_busy_cycle_pj
                + self._get(activity, "pels", "idle_cycles") * energy.pels_idle_cycle_pj
                + self._get(activity, "pels", "instant_actions") * energy.pels_instant_action_pj
                + self._get(activity, "pels", "scm_reads") * energy.scm_read_pj
                + self._get(activity, "pels", "scm_writes") * energy.scm_write_pj
            )
        others_pj = (
            window_cycles * energy.soc_background_cycle_pj
            + self._peripheral_accesses(activity) * energy.peripheral_access_pj
            + self._peripheral_active_cycles(activity) * energy.peripheral_active_cycle_pj
            + self._get(activity, "udma", "words_moved") * energy.peripheral_access_pj
        )

        def to_uw(picojoules: float) -> float:
            return picojoules * 1e-12 / window_seconds * 1e6

        components_uw = {
            "Processor": to_uw(processor_pj),
            "RAM": to_uw(ram_pj),
            "Interconnect": to_uw(interconnect_pj),
            "PELS": to_uw(pels_pj),
            "Others": to_uw(others_pj),
            "Leakage": energy.leakage_total_uw(include_pels=pels_present),
        }
        return PowerBreakdown(
            scenario=scenario,
            frequency_hz=frequency_hz,
            window_cycles=window_cycles,
            components_uw=components_uw,
        )


def diff_activity(before: ActivitySnapshot, after: ActivitySnapshot) -> Dict[Tuple[str, str], int]:
    """Per-key difference ``after - before`` (only non-negative deltas are kept)."""
    delta: Dict[Tuple[str, str], int] = {}
    for key, end_value in after.items():
        start_value = before.get(key, 0)
        if end_value > start_value:
            delta[key] = end_value - start_value
    return delta
