"""repro — a Python reproduction of PELS, the Peripheral Event Linking System.

PELS (Ottaviano et al., DATE 2024) is a lightweight, microcode-programmable
event-linking unit for ultra-low-power RISC-V IoT processors.  This package
reproduces the system and its evaluation in pure Python:

* :mod:`repro.core` — PELS itself (microcode ISA, assembler, trigger units,
  SCM, execution units, links, top level).
* :mod:`repro.sim`, :mod:`repro.bus`, :mod:`repro.peripherals`,
  :mod:`repro.cpu`, :mod:`repro.dma`, :mod:`repro.soc` — the PULPissimo-style
  substrate PELS is integrated into.
* :mod:`repro.workloads` — the evaluation workloads.
* :mod:`repro.power`, :mod:`repro.area`, :mod:`repro.analysis` — the models
  that regenerate the paper's figures and tables.
* :mod:`repro.sweep` — sweep campaigns: scenario × parameter grid, sharded
  across processes, aggregated into structured artifacts
  (``python -m repro.run sweep``).
* :mod:`repro.obs` — the telemetry layer: metrics registry, structured span
  tracing (Chrome trace-event export), and the always-on sweep phase
  profile (``--trace-out``, ``python -m repro.run stats``).

Quickstart::

    from repro import build_soc, SocConfig, Assembler, TriggerCondition

    soc = build_soc(SocConfig())
    asm = Assembler()
    asm.define_register("GPIO_OUT", 0x1004)   # byte offset from the link base
    program = asm.assemble("set GPIO_OUT 0x1\\nend")
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    soc.pels.program_link(0, program, trigger_mask=timer_bit,
                          base_address=soc.address_map.peripheral_base("udma"))
    soc.timer.start()
    soc.run(500)
"""

from repro.core import (
    Assembler,
    Command,
    JumpCondition,
    Opcode,
    Pels,
    PelsConfig,
    Program,
    TriggerCondition,
)
from repro.soc import PulpissimoSoc, SocConfig, build_soc
from repro.workloads import (
    ThresholdWorkloadConfig,
    run_ibex_threshold_workload,
    run_pels_threshold_workload,
)
from repro.power import PowerModel, run_figure5
from repro.area import PelsAreaModel, figure6a_sweep, figure6b_breakdown
from repro.analysis import format_table1, measure_latency_comparison
from repro.sweep import CampaignSpec, execute_campaign, expand_campaign, write_artifacts
from repro.obs import MetricsRegistry, SpanTracer, capture

__version__ = "0.1.0"

__all__ = [
    "Assembler",
    "CampaignSpec",
    "Command",
    "JumpCondition",
    "MetricsRegistry",
    "Opcode",
    "Pels",
    "PelsAreaModel",
    "PelsConfig",
    "PowerModel",
    "Program",
    "PulpissimoSoc",
    "SocConfig",
    "SpanTracer",
    "ThresholdWorkloadConfig",
    "TriggerCondition",
    "build_soc",
    "capture",
    "execute_campaign",
    "expand_campaign",
    "figure6a_sweep",
    "figure6b_breakdown",
    "format_table1",
    "measure_latency_comparison",
    "run_figure5",
    "run_ibex_threshold_workload",
    "run_pels_threshold_workload",
    "write_artifacts",
    "__version__",
]
