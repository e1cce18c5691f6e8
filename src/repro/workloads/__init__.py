"""Reusable event-linking workloads.

These are the applications the paper evaluates (Section IV-B), factored out
so the examples, the tests, the latency analysis, and the power scenarios all
drive exactly the same stimulus:

* :mod:`repro.workloads.threshold` — the headline workload: a threshold-
  crossing check after a µDMA-managed SPI sensor readout, handled either by
  PELS sequenced/instant actions or by the Ibex interrupt baseline.
* :mod:`repro.workloads.minimal` — the minimal linking event (a single
  read-modify-write of one peripheral register) used for the 7-cycle vs
  16-cycle latency comparison.
* :mod:`repro.workloads.periodic` — an always-on monitoring scenario
  (timer → ADC → PWM with watchdog supervision) built from the paper's
  motivating applications.
* :mod:`repro.workloads.longrun` — long-horizon, idle-heavy scenarios
  (duty-cycled multi-sensor logging, burst SPI→DMA streaming, autonomous
  watchdog recovery) that are practical to simulate thanks to the
  event-driven kernel's quiescence skipping.
* :mod:`repro.workloads.pipeline` — the chained timer→ADC→UART→blinker
  pipeline across three specialised links, with a sweepable SoC-to-I/O
  clock ratio.
* :mod:`repro.workloads.registry` — the scenario registry behind the batch
  runner (``python -m repro.run``).  The long-run and pipeline workloads
  reach it as prepared instances: each ``prepare_*`` function returns a
  :class:`PreparedScenario`, which
  :func:`~repro.workloads.registry.run_prepared` advances and whose
  ``outcome(horizon).stats`` is the scenario's record.
"""

from repro.workloads.longrun import (
    BurstStreamConfig,
    DutyCycledLoggingConfig,
    WatchdogRecoveryConfig,
    prepare_burst_stream,
    prepare_duty_cycled_logging,
    seeded_watchdog_recovery_config,
)
from repro.workloads.minimal import MinimalLinkingResult, run_minimal_ibex_linking, run_minimal_pels_linking
from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline
from repro.workloads.registry import (
    PreparedScenario,
    ScenarioOutcome,
    ScenarioSpec,
    register_scenario,
    run_scenario,
    run_scenario_instrumented,
    scenario,
    scenario_names,
    scenarios,
)
from repro.workloads.periodic import (
    PeriodicMonitorConfig,
    PeriodicMonitorResult,
    run_periodic_monitor,
)
from repro.workloads.threshold import (
    ThresholdWorkload,
    ThresholdWorkloadConfig,
    ThresholdWorkloadResult,
    run_ibex_threshold_workload,
    run_pels_threshold_workload,
)

__all__ = [
    "BurstStreamConfig",
    "DutyCycledLoggingConfig",
    "MinimalLinkingResult",
    "MultiLinkPipelineConfig",
    "PeriodicMonitorConfig",
    "PeriodicMonitorResult",
    "PreparedScenario",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ThresholdWorkload",
    "ThresholdWorkloadConfig",
    "ThresholdWorkloadResult",
    "WatchdogRecoveryConfig",
    "prepare_burst_stream",
    "prepare_duty_cycled_logging",
    "prepare_multi_link_pipeline",
    "register_scenario",
    "run_ibex_threshold_workload",
    "run_minimal_ibex_linking",
    "run_minimal_pels_linking",
    "run_pels_threshold_workload",
    "run_periodic_monitor",
    "run_scenario",
    "run_scenario_instrumented",
    "scenario",
    "scenario_names",
    "scenarios",
    "seeded_watchdog_recovery_config",
]
