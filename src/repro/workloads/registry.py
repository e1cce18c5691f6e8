"""Scenario registry for the batch runner and the sweep subsystem.

Every entry maps a stable scenario name to a callable that builds, runs, and
summarises one workload over a caller-chosen horizon.  The registry is what
``python -m repro.run`` dispatches on, what :mod:`repro.sweep` expands its
campaign grids over, and it gives tests and benchmarks a single place to
enumerate "everything the model can do".

Each scenario registers once (:func:`register_scenario`), in one of two
shapes:

* a **prepare hook** ``(horizons, dense, **params) -> PreparedScenario``
  (``prepared=True``): it validates every requested horizon, builds the
  scenario once for the largest, and returns the ready-to-advance instance.
  That instance is the scenario's one record: its
  :meth:`PreparedScenario.outcome` builds the stats dict.  The workload
  modules' ``prepare_*`` functions return such instances directly, so a
  hook is config validation plus one call.  The scenario's solo runner is
  derived from it — prepare with ``[h]``, :func:`run_prepared` to ``h``,
  read :meth:`PreparedScenario.outcome` — and the sweep layer advances one
  prepared instance per shared-prefix group through
  :class:`repro.sim.batch.BatchSimulator`, snapshotting the outcome at each
  point's horizon.  That is byte-identical to running each
  point alone: the simulation is deterministic and a shorter horizon is a
  strict prefix of a longer one.  Only scenarios whose setup does not depend
  on the horizon can take this shape.
* a plain **runner** ``(horizon_cycles, dense, **params) ->
  ScenarioOutcome``, for the scenarios whose setup is horizon-derived
  (always-on-monitor's sample count) or whose host loop stops at
  data-dependent cycles (threshold-pels' ``run_until``).  The sweep layer
  runs their points one at a time.

``horizon_cycles`` is the simulated horizon in base-clock cycles, ``dense``
selects the reference cycle-driven kernel (:mod:`repro.sim.simulator`) for A/B
comparisons, and ``params`` are the scenario's declared sweepable parameters
(see :class:`ScenarioSpec.params`).  The outcome carries the flat scalar
statistics plus (where available) the SoC itself, so downstream consumers —
the power and area models in the sweep worker — can read activity counters
and configuration without re-running.

:func:`run_scenario` keeps the original "stats dict" contract;
:func:`run_scenario_instrumented` exposes the full outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

ScenarioRunner = Callable[..., "ScenarioOutcome"]
DriveStop = Tuple[int, Callable[[int], None]]


class BatchUnsupported(ValueError):
    """A prepare hook declining to serve several horizons with one instance.

    Raised when the scenario supports batching in general but the requested
    parameters cannot share one prepared instance (e.g. a fault-injection
    seed that derives *different* drives at different horizons).  The sweep
    executor catches it, runs the group's points one at a time, and records
    the reason in the manifest's ``batch_fallbacks``.
    """


class PreparedScenario:
    """One built, ready-to-advance scenario instance — the scenario's record.

    Subclasses hold the system under simulation in ``self.soc`` and build
    the scenario's statistics once, in :meth:`outcome`, at any *elapsed*
    cycle count — which must equal what a standalone run with
    ``horizon_cycles=elapsed`` would report, because the batch executor
    snapshots the outcome mid-run at every shared point's horizon.
    """

    soc: Any

    @property
    def simulator(self):
        """The :class:`repro.sim.Simulator` the drivers advance (by default
        the one of ``self.soc``)."""
        return self.soc.simulator

    def outcome(self, elapsed_cycles: int) -> "ScenarioOutcome":
        """The scenario outcome as of ``elapsed_cycles`` simulated cycles.

        Called with the simulator paused exactly on ``elapsed_cycles``; must
        only observe (read counters, reference the SoC), never advance.
        """
        raise NotImplementedError

    def drive_stops(self) -> Sequence[DriveStop]:
        """Mid-run testbench interference as ``(cycle, callback)`` stops.

        Most scenarios run uninterrupted and return nothing.  Two-segment
        scenarios (watchdog-recovery's fault injection) return the resumable
        drive script here; both drivers fire each callback while paused
        exactly on its cycle — callbacks may mutate the system (that is
        their point) but must never advance the clock.
        """
        return ()


BatchPrepare = Callable[..., PreparedScenario]


def run_prepared(prepared: PreparedScenario, horizon_cycles: int) -> PreparedScenario:
    """Advance a prepared instance to ``horizon_cycles``; return it.

    The solo driver: steps to each of its :meth:`PreparedScenario.drive_stops`
    at or before the horizon and fires it (a drive on the horizon itself
    fires before the caller observes, as in the batch executor), then steps
    to the horizon.  Read the result with ``outcome(horizon_cycles)``.
    """
    simulator = prepared.simulator
    for cycle, drive in sorted(prepared.drive_stops(), key=lambda stop: stop[0]):
        if cycle > horizon_cycles:
            break
        simulator.step(cycle - simulator.current_cycle)
        drive(cycle)
    simulator.step(horizon_cycles - simulator.current_cycle)
    return prepared


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``stats`` is the flat scalar summary the batch runner prints; ``soc`` is
    the simulated system itself (``None`` for scenarios that do not expose
    it), from which activity counters, the clock frequency, and the PELS
    configuration can be read for power/area post-processing.
    """

    stats: Dict[str, object] = field(default_factory=dict)
    soc: Optional[Any] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario."""

    name: str
    description: str
    default_horizon_cycles: int
    #: The solo runner ``(horizon_cycles, dense, **params) -> ScenarioOutcome``
    #: (derived from :attr:`prepare` when the scenario registered a hook).
    run: ScenarioRunner
    #: Names of the keyword parameters the runner accepts beyond the horizon
    #: and kernel selection — the axes a sweep campaign may put in its grid.
    params: Tuple[str, ...] = ()
    #: The prepare hook ``(horizons, dense, **params) -> PreparedScenario``;
    #: ``None`` means the scenario cannot share a prepared instance across
    #: horizons and the sweep layer runs its points one at a time.
    prepare: Optional[BatchPrepare] = None


_REGISTRY: Dict[str, ScenarioSpec] = {}


def _solo_runner(prepare: BatchPrepare) -> ScenarioRunner:
    def run(horizon_cycles: int, dense: bool, **params: object) -> ScenarioOutcome:
        prepared = prepare([horizon_cycles], dense, **params)
        return run_prepared(prepared, horizon_cycles).outcome(horizon_cycles)

    return run


def register_scenario(
    name: str,
    description: str,
    default_horizon_cycles: int,
    params: Tuple[str, ...] = (),
    prepared: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator registering a scenario under ``name``.

    The decorated function is the scenario's runner ``fn(horizon_cycles,
    dense, **params)`` — or, with ``prepared=True``, its prepare hook
    ``fn(horizons, dense, **params)``, which must validate each ascending
    horizon exactly as a solo run of it would (so a bad point fails the same
    way batched or not) and return a :class:`PreparedScenario` built for the
    largest.  The solo runner is then derived from the hook.
    """

    def decorator(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        if default_horizon_cycles < 1:
            raise ValueError("the default horizon must be at least one cycle")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            description=description,
            default_horizon_cycles=default_horizon_cycles,
            run=_solo_runner(fn) if prepared else fn,
            params=tuple(params),
            prepare=fn if prepared else None,
        )
        return fn

    return decorator


def scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from exc


def scenario_names() -> Tuple[str, ...]:
    """Sorted names of all registered scenarios."""
    return tuple(sorted(_REGISTRY))


def scenarios() -> Tuple[ScenarioSpec, ...]:
    """All registered scenarios, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def _validated_params(spec: ScenarioSpec, params: Optional[Mapping[str, object]]) -> Dict[str, object]:
    if not params:
        return {}
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        accepted = ", ".join(spec.params) or "<none>"
        raise ValueError(
            f"scenario {spec.name!r} does not accept parameter(s) {unknown}; accepted: {accepted}"
        )
    return dict(params)


def run_scenario_instrumented(
    name: str,
    horizon_cycles: int | None = None,
    dense: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> ScenarioOutcome:
    """Run scenario ``name`` and return the full :class:`ScenarioOutcome`."""
    spec = scenario(name)
    horizon = spec.default_horizon_cycles if horizon_cycles is None else horizon_cycles
    if horizon < 1:
        raise ValueError("the horizon must be at least one cycle")
    outcome = spec.run(horizon, dense, **_validated_params(spec, params))
    if not isinstance(outcome, ScenarioOutcome):
        raise TypeError(f"scenario {name!r} returned {type(outcome).__name__}, not ScenarioOutcome")
    return outcome


def run_scenario(
    name: str,
    horizon_cycles: int | None = None,
    dense: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Run scenario ``name`` and return its statistics dictionary."""
    return dict(run_scenario_instrumented(name, horizon_cycles, dense, params).stats)


# ------------------------------------------------------------------ runners
#
# Horizon-dependent setup or host loops: these run point by point.


@register_scenario(
    "always-on-monitor",
    "Timer-paced ADC sampling into a PWM actuator loop with watchdog supervision",
    default_horizon_cycles=200_000,
    params=("sample_period_cycles",),
)
def _run_always_on_monitor(
    horizon_cycles: int, dense: bool, sample_period_cycles: int = 1_000
) -> ScenarioOutcome:
    from repro.peripherals.sensor import SensorWaveform
    from repro.soc.pulpissimo import SocConfig, build_soc
    from repro.workloads.periodic import PeriodicMonitorConfig, run_periodic_monitor

    period = sample_period_cycles
    config = PeriodicMonitorConfig(
        sample_period_cycles=period,
        n_samples=max(horizon_cycles // period - 4, 1),
        watchdog_timeout_cycles=3 * period,
        watchdog_grace_cycles=period,
    )
    soc = build_soc(
        SocConfig(
            sensor_waveform=SensorWaveform(kind="constant", amplitude=config.sensor_amplitude),
            dense=dense,
        )
    )
    result = run_periodic_monitor(config, soc=soc)
    stats = {
        "samples_taken": result.samples_taken,
        "duty_updates": result.duty_updates,
        "final_duty": result.final_duty,
        "watchdog_kicks": result.watchdog_kicks,
        "watchdog_barks": result.watchdog_barks,
        "cpu_interrupts": result.cpu_interrupts,
        "horizon_cycles": result.total_cycles,
    }
    return ScenarioOutcome(stats=stats, soc=soc)


@register_scenario(
    "threshold-pels",
    "Paper workload: threshold check after µDMA-managed SPI readout (PELS-linked)",
    default_horizon_cycles=50_000,
    params=("spi_cycles_per_word",),
)
def _run_threshold_pels(
    horizon_cycles: int, dense: bool, spi_cycles_per_word: int = 4
) -> ScenarioOutcome:
    from repro.soc.pulpissimo import SocConfig, build_soc
    from repro.workloads.threshold import ThresholdWorkloadConfig, run_pels_threshold_workload

    config = ThresholdWorkloadConfig(
        n_events=max(horizon_cycles // 6_000, 1), spi_cycles_per_word=spi_cycles_per_word
    )
    soc = build_soc(SocConfig(spi_cycles_per_word=config.spi_cycles_per_word, dense=dense))
    result = run_pels_threshold_workload(config, soc=soc)
    stats = {
        "events_serviced": result.events_serviced,
        "alerts_raised": result.alerts_raised,
        "mean_latency_cycles": result.mean_latency,
        "worst_latency_cycles": result.worst_latency,
        "horizon_cycles": result.total_cycles,
    }
    return ScenarioOutcome(stats=stats, soc=soc)


# ------------------------------------------------------------ prepare hooks
#
# Horizon-independent setup: one prepared instance serves every horizon of a
# group, and the solo runner is the same hook driven to one horizon.
# Scripted interference is fine: watchdog-recovery exposes its fault
# injection as a drive stop (:meth:`PreparedScenario.drive_stops`) that both
# drivers fire at the exact stall cycle.


def _prepare_workload(config_cls, prepare, horizons, dense, params) -> PreparedScenario:
    """Validate a config per horizon (as a solo run of it would) and prepare
    one instance for the largest."""
    configs = [config_cls(horizon_cycles=horizon, dense=dense, **params) for horizon in horizons]
    return prepare(configs[-1])


@register_scenario(
    "duty-cycled-logging",
    "Duty-cycled multi-sensor logging: ADC + SPI readouts, µDMA log, PWM loop",
    default_horizon_cycles=500_000,
    params=("sample_period_cycles", "words_per_readout", "spi_cycles_per_word", "pwm_period"),
    prepared=True,
)
def _prepare_duty_cycled_logging(horizons, dense: bool, **params: object) -> PreparedScenario:
    from repro.workloads.longrun import DutyCycledLoggingConfig, prepare_duty_cycled_logging

    return _prepare_workload(
        DutyCycledLoggingConfig, prepare_duty_cycled_logging, horizons, dense, params
    )


@register_scenario(
    "burst-spi-dma",
    "Burst SPI→µDMA streaming to L2 with long silent gaps",
    default_horizon_cycles=1_000_000,
    params=("burst_period_cycles", "words_per_burst", "spi_cycles_per_word"),
    prepared=True,
)
def _prepare_burst_stream(horizons, dense: bool, **params: object) -> PreparedScenario:
    from repro.workloads.longrun import BurstStreamConfig, prepare_burst_stream

    return _prepare_workload(BurstStreamConfig, prepare_burst_stream, horizons, dense, params)


@register_scenario(
    "multi-link-pipeline",
    "Chained timer→ADC→UART→blinker pipeline across three specialised links",
    default_horizon_cycles=50_000,
    params=("timer_period_cycles", "clock_ratio", "blink_count"),
    prepared=True,
)
def _prepare_multi_link_pipeline(horizons, dense: bool, **params: object) -> PreparedScenario:
    from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline

    return _prepare_workload(
        MultiLinkPipelineConfig, prepare_multi_link_pipeline, horizons, dense, params
    )


@register_scenario(
    "watchdog-recovery",
    "Stalled sampling loop detected by the watchdog and restarted by PELS",
    default_horizon_cycles=200_000,
    params=("sample_period_cycles", "stall_after_samples", "seed"),
    prepared=True,
)
def _prepare_watchdog_recovery(
    horizons: Sequence[int],
    dense: bool,
    seed: Optional[int] = None,
    **params: object,
) -> PreparedScenario:
    from repro.workloads.longrun import (
        WatchdogRecoveryConfig,
        prepare_watchdog_recovery,
        seeded_watchdog_recovery_config,
    )

    if seed is not None and params:
        raise ValueError(
            "watchdog-recovery takes either a fault-injection seed or explicit "
            f"parameters, not both (got seed={seed} and {sorted(params)})"
        )
    configs = []
    for horizon in horizons:
        if seed is not None:
            configs.append(
                seeded_watchdog_recovery_config(seed, horizon_cycles=horizon, dense=dense)
            )
        else:
            configs.append(WatchdogRecoveryConfig(horizon_cycles=horizon, dense=dense, **params))
    # A seeded config derives its drive (period, stall instant) from the
    # horizon too; the shared instance is only a valid prefix of every point
    # when all horizons derive the same drive.
    drives = {(c.sample_period_cycles, c.stall_after_samples) for c in configs}
    if len(drives) > 1:
        raise BatchUnsupported(
            f"watchdog-recovery seed {seed} derives different fault-injection "
            f"drives across horizons {sorted(horizons)}; the points cannot "
            f"share one prepared instance"
        )
    return prepare_watchdog_recovery(configs[-1])


class _PreparedFigure5Idle(PreparedScenario):
    """Built idle-measurement SoC serving the ``figure5-idle`` scenario."""

    def __init__(self, soc, mode: str, frequency_mhz: float, pwm_period: int) -> None:
        self.soc = soc
        self.mode = mode
        self.frequency_mhz = frequency_mhz
        self.pwm_period = pwm_period

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        soc = self.soc
        activity = soc.activity
        stats = {
            "mode": self.mode,
            "frequency_mhz": self.frequency_mhz,
            "cpu_sleep_cycles": soc.cpu.sleep_cycles,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "pels_idle_cycles": activity.get("pels", "idle_cycles"),
            "sram_reads": activity.get("sram", "reads"),
            "horizon_cycles": elapsed_cycles,
        }
        if self.pwm_period:
            stats["pwm_periods_elapsed"] = soc.pwm.periods_elapsed
        return ScenarioOutcome(stats=stats, soc=soc)


@register_scenario(
    "figure5-idle",
    "Paper-scale idle power study: armed threshold link waiting for events (Figure 5 idle bars)",
    default_horizon_cycles=110_000,
    params=("mode", "frequency_mhz", "pwm_period"),
    prepared=True,
)
def _prepare_figure5_idle(
    horizons: Sequence[int],
    dense: bool,
    mode: str = "pels",
    frequency_mhz: float = 27.0,
    pwm_period: int = 0,
) -> PreparedScenario:
    from repro.power.scenarios import build_idle_measurement_soc

    soc = build_idle_measurement_soc(mode, frequency_hz=frequency_mhz * 1e6, dense=dense)
    if pwm_period:
        # Arm the PWM actuator (as the always-on monitor keeps it running
        # while idle).  Nothing consumes its ``period`` event line here, so
        # this is the workload the consumer-aware fabric exists for: with
        # every line observed it wakes every period, here it free-runs.
        soc.pwm.regs.reg("PERIOD").write(int(pwm_period))
        soc.pwm.start()
    return _PreparedFigure5Idle(soc, mode, frequency_mhz, pwm_period)
