"""Long-horizon, idle-heavy workloads enabled by the event-driven kernel.

The paper's motivating applications — always-on monitoring, duty-cycled
sensing, supervised autonomous loops — spend almost all of their time idle:
the interesting activity is a few tens of cycles around each linking event,
separated by thousands to millions of quiescent cycles.  Under the reference
cycle-driven kernel (dense mode) these horizons are impractical to simulate
(every component ticks on every cycle); with quiescence skipping they cost time
proportional to the *events*, not the horizon.

Three scenarios, all fully autonomous (the Ibex core sleeps throughout):

* :func:`prepare_duty_cycled_logging` — a timer paces simultaneous ADC
  sampling and SPI sensor readouts at a low duty cycle; the µDMA logs the
  SPI words to L2, each ADC sample closes a sensor→PWM actuator loop, and a
  watchdog supervises progress.
* :func:`prepare_burst_stream` — periodic bursts of SPI words streamed to
  memory by the µDMA, with long silent gaps in between; the end-of-transfer
  event kicks the watchdog.
* :func:`prepare_watchdog_recovery` — a supervised sampling loop into which
  the testbench injects a stall; the watchdog's *bark* event is linked back
  to the timer's ``start`` input, so PELS restarts the loop autonomously
  before the *bite* (system reset) would fire.

Each ``prepare_*`` function builds and programs the system without running
it and returns a :class:`~repro.workloads.registry.PreparedScenario`; drive
it with :func:`~repro.workloads.registry.run_prepared` and read the
statistics from its ``outcome(horizon).stats``, or run it by scenario name
through :func:`~repro.workloads.registry.run_scenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.assembler import Assembler
from repro.peripherals.sensor import SensorWaveform
from repro.soc.pulpissimo import PulpissimoSoc, SocConfig, build_soc
from repro.workloads.registry import PreparedScenario, ScenarioOutcome


def _soc_for(config_dense: bool, waveform: SensorWaveform, spi_cycles_per_word: int = 4) -> PulpissimoSoc:
    return build_soc(
        SocConfig(sensor_waveform=waveform, spi_cycles_per_word=spi_cycles_per_word, dense=config_dense)
    )


# --------------------------------------------------------------------- logging


@dataclass(frozen=True)
class DutyCycledLoggingConfig:
    """Parameters of the duty-cycled multi-sensor logging scenario."""

    sample_period_cycles: int = 5_000
    horizon_cycles: int = 500_000
    words_per_readout: int = 4
    spi_cycles_per_word: int = 4
    pwm_period: int = 2_048
    sensor_amplitude: int = 96
    dense: bool = False

    def __post_init__(self) -> None:
        if self.sample_period_cycles < 100:
            raise ValueError("duty-cycled sampling needs a period >= 100 cycles")
        if self.horizon_cycles < self.sample_period_cycles:
            raise ValueError("the horizon must cover at least one sampling period")
        if self.words_per_readout < 1:
            raise ValueError("each readout needs at least one word")


class PreparedDutyCycledLogging(PreparedScenario):
    """A programmed duty-cycled logging system, ready to run."""

    def __init__(self, config: DutyCycledLoggingConfig, soc: PulpissimoSoc) -> None:
        self.config = config
        self.soc = soc

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        """The run as of ``elapsed_cycles`` simulated cycles (identical to
        finishing a run of exactly that horizon — the setup does not depend
        on the horizon)."""
        soc = self.soc
        stats = {
            "samples_taken": soc.adc.conversions,
            "readouts_completed": soc.spi.transfers_completed,
            "words_logged": soc.udma.total_words_moved,
            "duty_updates": soc.pwm.duty_updates,
            "watchdog_kicks": soc.wdt.kicks,
            "watchdog_barks": soc.wdt.barks,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "horizon_cycles": elapsed_cycles,
        }
        return ScenarioOutcome(stats=stats, soc=soc)


def prepare_duty_cycled_logging(
    config: DutyCycledLoggingConfig = DutyCycledLoggingConfig(),
) -> PreparedDutyCycledLogging:
    """Build and program the duty-cycled logging scenario without running it.

    Per sampling period the timer overflow instant-starts *both* an ADC
    conversion and an SPI readout (one action, two routed lines); the ADC
    result updates the PWM duty cycle, the SPI words are streamed to L2 by
    the µDMA, and the SPI end-of-transfer kicks the watchdog.
    """
    soc = _soc_for(
        config.dense,
        SensorWaveform(kind="sine", amplitude=config.sensor_amplitude, offset=config.sensor_amplitude),
        config.spi_cycles_per_word,
    )
    assert soc.pels is not None
    pels = soc.pels
    assembler = Assembler()

    # Link 0: timer overflow -> start ADC conversion + SPI readout.
    pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
    pels.route_action_to_peripheral(group=0, bit=1, peripheral=soc.spi, port="start")
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    pels.program_link(0, assembler.assemble("action 0 0x3\nend"), trigger_mask=timer_bit)

    # Link 1: ADC end-of-conversion -> PWM duty update (capture + write + update).
    adc_base = soc.address_map.peripheral_base("adc")
    adc_data = (soc.register_address("adc", "DATA") - adc_base) // 4
    pwm_shadow = (soc.register_address("pwm", "DUTY_SHADOW") - adc_base) // 4
    pels.route_action_to_peripheral(group=1, bit=0, peripheral=soc.pwm, port="update")
    duty = min(config.sensor_amplitude, config.pwm_period)
    adc_bit = 1 << soc.fabric.index_of(soc.adc.event_line_name("eoc"))
    pels.program_link(
        1,
        assembler.assemble(f"capture {adc_data} 0xFFFF\nwrite {pwm_shadow} {duty}\naction 1 0x1\nend"),
        trigger_mask=adc_bit,
        base_address=adc_base,
    )

    # Link 2: SPI end-of-transfer -> watchdog kick (progress supervision).
    pels.route_action_to_peripheral(group=2, bit=0, peripheral=soc.wdt, port="kick")
    spi_eot_bit = 1 << soc.fabric.index_of(soc.spi.event_line_name("eot"))
    pels.program_link(2, assembler.assemble("action 2 0x1\nend"), trigger_mask=spi_eot_bit)

    # µDMA channel: SPI RX FIFO -> L2 log buffer.
    log_buffer = soc.address_map.sram_base + 0x400
    soc.udma.add_channel(
        source=soc.spi, destination_address=log_buffer, length_words=config.words_per_readout
    )

    soc.spi.regs.reg("LEN").hw_write(config.words_per_readout)
    soc.pwm.regs.reg("PERIOD").hw_write(config.pwm_period)
    soc.pwm.start()
    soc.wdt.regs.reg("TIMEOUT").hw_write(3 * config.sample_period_cycles)
    soc.wdt.regs.reg("GRACE").hw_write(config.sample_period_cycles)
    soc.wdt.start()
    soc.timer.regs.reg("COMPARE").hw_write(config.sample_period_cycles)
    soc.timer.start()
    return PreparedDutyCycledLogging(config, soc)


# -------------------------------------------------------------------- bursting


@dataclass(frozen=True)
class BurstStreamConfig:
    """Parameters of the burst SPI→DMA streaming scenario."""

    burst_period_cycles: int = 20_000
    horizon_cycles: int = 1_000_000
    words_per_burst: int = 64
    spi_cycles_per_word: int = 4
    dense: bool = False

    def __post_init__(self) -> None:
        if self.words_per_burst < 1:
            raise ValueError("a burst needs at least one word")
        burst_cycles = self.words_per_burst * max(self.spi_cycles_per_word, 1)
        if self.burst_period_cycles <= burst_cycles:
            raise ValueError("the burst period must exceed the burst itself")


class PreparedBurstStream(PreparedScenario):
    """A programmed burst-streaming system, ready to run."""

    def __init__(self, config: BurstStreamConfig, soc: PulpissimoSoc) -> None:
        self.config = config
        self.soc = soc

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        """The run as of ``elapsed_cycles`` simulated cycles."""
        soc = self.soc
        stats = {
            "bursts_completed": soc.spi.transfers_completed,
            "words_streamed": soc.udma.total_words_moved,
            "rx_overflows": soc.spi.rx_overflows,
            "watchdog_kicks": soc.wdt.kicks,
            "watchdog_barks": soc.wdt.barks,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "horizon_cycles": elapsed_cycles,
        }
        return ScenarioOutcome(stats=stats, soc=soc)


def prepare_burst_stream(config: BurstStreamConfig = BurstStreamConfig()) -> PreparedBurstStream:
    """Build and program the burst SPI→DMA streaming scenario without
    running it.

    The timer paces SPI bursts; the µDMA drains each burst to memory while it
    is still arriving, and the end-of-transfer event kicks the watchdog.  The
    long inter-burst gaps are exactly the spans the event-driven kernel
    skips.
    """
    soc = _soc_for(
        config.dense,
        SensorWaveform(kind="ramp", amplitude=0xFFFF, step=7),
        config.spi_cycles_per_word,
    )
    assert soc.pels is not None
    pels = soc.pels
    assembler = Assembler()

    pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.spi, port="start")
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    pels.program_link(0, assembler.assemble("action 0 0x1\nend"), trigger_mask=timer_bit)

    pels.route_action_to_peripheral(group=1, bit=0, peripheral=soc.wdt, port="kick")
    spi_eot_bit = 1 << soc.fabric.index_of(soc.spi.event_line_name("eot"))
    pels.program_link(1, assembler.assemble("action 1 0x1\nend"), trigger_mask=spi_eot_bit)

    stream_buffer = soc.address_map.sram_base + 0x800
    soc.udma.add_channel(
        source=soc.spi, destination_address=stream_buffer, length_words=config.words_per_burst
    )

    soc.spi.regs.reg("LEN").hw_write(config.words_per_burst)
    soc.wdt.regs.reg("TIMEOUT").hw_write(3 * config.burst_period_cycles)
    soc.wdt.regs.reg("GRACE").hw_write(config.burst_period_cycles)
    soc.wdt.start()
    soc.timer.regs.reg("COMPARE").hw_write(config.burst_period_cycles)
    soc.timer.start()
    return PreparedBurstStream(config, soc)


# -------------------------------------------------------------------- recovery


@dataclass(frozen=True)
class WatchdogRecoveryConfig:
    """Parameters of the watchdog-recovery scenario."""

    sample_period_cycles: int = 2_000
    stall_after_samples: int = 5
    horizon_cycles: int = 200_000
    sensor_amplitude: int = 80
    dense: bool = False

    def __post_init__(self) -> None:
        if self.sample_period_cycles < 100:
            raise ValueError("the sampling period must be >= 100 cycles")
        if self.stall_after_samples < 1:
            raise ValueError("the stall must happen after at least one sample")
        if self.horizon_cycles < (self.stall_after_samples + 4) * self.sample_period_cycles:
            raise ValueError("the horizon leaves no room for the recovery to play out")


def seeded_watchdog_recovery_config(
    seed: int, horizon_cycles: int = 200_000, dense: bool = False
) -> WatchdogRecoveryConfig:
    """Derive a fault-injection point deterministically from ``seed``.

    The seed picks the sampling period and the stall instant (how many healthy
    samples before the injected fault), the two knobs that decide how close to
    the watchdog's bite the recovery cuts.  The same seed always yields the
    same configuration, which is what makes fault-injection sweep campaigns
    reproducible point by point.
    """
    rng = random.Random(seed)
    period = rng.randrange(1_600, 2_500, 100)
    # Clamp the period so even stall_after_samples=1 leaves the (stall + 4)
    # periods the config validation demands — any horizon >= 500 cycles
    # yields a valid point for every seed.
    period = min(period, max(horizon_cycles // 5, 100))
    max_stall = max(horizon_cycles // period - 4, 1)
    stall_after = rng.randint(1, min(12, max_stall))
    return WatchdogRecoveryConfig(
        sample_period_cycles=period,
        stall_after_samples=stall_after,
        horizon_cycles=horizon_cycles,
        dense=dense,
    )


class PreparedWatchdogRecovery(PreparedScenario):
    """A programmed watchdog-recovery system plus its fault-injection drive.

    Unlike the other long-run workloads this scenario is *two-segment*: the
    testbench interferes mid-run (stopping the timer at the stall instant).
    The prepared object therefore exposes the interference as a **drive
    stop** — ``(stall_cycles, inject_stall)`` — which the solo driver
    (:func:`~repro.workloads.registry.run_prepared`) and the batched
    executor both fire while paused exactly on the stall cycle.
    """

    def __init__(self, config: WatchdogRecoveryConfig, soc: PulpissimoSoc) -> None:
        self.config = config
        self.soc = soc
        #: Healthy sample count recorded by :meth:`inject_stall`; the
        #: recovery verdict in :meth:`outcome` is relative to it.
        self.samples_before_stall: Optional[int] = None

    @property
    def stall_cycles(self) -> int:
        """The absolute cycle at which the fault is injected."""
        period = self.config.sample_period_cycles
        return self.config.stall_after_samples * period + period // 2

    def inject_stall(self, elapsed_cycles: int) -> None:
        """Record the healthy sample count and stall the sampling loop.

        Observes-and-configures only (a register write); it never advances
        the clock, so it is a valid batch stop callback.
        """
        self.samples_before_stall = self.soc.adc.conversions
        self.soc.timer.stop()  # fault injection: the sampling loop stalls

    def drive_stops(self):
        """The scenario's mid-run interference as ``(cycle, callback)``."""
        return ((self.stall_cycles, self.inject_stall),)

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        """The run as of ``elapsed_cycles`` simulated cycles, plus the
        resolved drive parameters (a seeded point derives them from the seed).

        Only meaningful after :meth:`inject_stall` has fired (every valid
        horizon lies beyond the stall instant — the config validation
        demands ``(stall + 4)`` periods of room).
        """
        soc = self.soc
        samples_before = self.samples_before_stall
        if samples_before is None:
            raise ValueError(
                "watchdog-recovery result requested before the stall was "
                f"injected (elapsed {elapsed_cycles} < stall {self.stall_cycles})"
            )
        recovered = (
            soc.timer.enabled and soc.adc.conversions > samples_before and soc.wdt.bites == 0
        )
        stats = {
            "samples_before_stall": samples_before,
            "samples_total": soc.adc.conversions,
            "watchdog_barks": soc.wdt.barks,
            "watchdog_bites": soc.wdt.bites,
            "recovered": recovered,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "horizon_cycles": elapsed_cycles,
            "sample_period_cycles": self.config.sample_period_cycles,
            "stall_after_samples": self.config.stall_after_samples,
        }
        return ScenarioOutcome(stats=stats, soc=soc)


def prepare_watchdog_recovery(
    config: WatchdogRecoveryConfig = WatchdogRecoveryConfig(),
) -> PreparedWatchdogRecovery:
    """Build and program the watchdog-recovery scenario without running it.

    A timer-paced ADC sampling loop kicks the watchdog on every conversion.
    After ``stall_after_samples`` samples the testbench stops the timer
    (injecting the fault the supervision exists for).  The watchdog counts
    down and *barks*; the bark event is linked to the timer's ``start``
    input, so PELS restarts the loop autonomously — the *bite* (system
    reset) never fires and the CPU never wakes.  The injection is the
    prepared instance's drive stop, fired on the stall cycle.
    """
    soc = _soc_for(
        config.dense,
        SensorWaveform(kind="constant", amplitude=config.sensor_amplitude),
    )
    assert soc.pels is not None
    pels = soc.pels
    assembler = Assembler()

    # Link 0: timer overflow -> ADC conversion.
    pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    pels.program_link(0, assembler.assemble("action 0 0x1\nend"), trigger_mask=timer_bit)

    # Link 1: ADC end-of-conversion -> watchdog kick.
    pels.route_action_to_peripheral(group=1, bit=0, peripheral=soc.wdt, port="kick")
    adc_bit = 1 << soc.fabric.index_of(soc.adc.event_line_name("eoc"))
    pels.program_link(1, assembler.assemble("action 1 0x1\nend"), trigger_mask=adc_bit)

    # Link 2: watchdog bark -> restart the timer (autonomous recovery).
    pels.route_action_to_peripheral(group=2, bit=0, peripheral=soc.timer, port="start")
    bark_bit = 1 << soc.fabric.index_of(soc.wdt.event_line_name("bark"))
    pels.program_link(2, assembler.assemble("action 2 0x1\nend"), trigger_mask=bark_bit)

    period = config.sample_period_cycles
    soc.wdt.regs.reg("TIMEOUT").hw_write(3 * period)
    # The grace period must outlast one full sampling period so the restarted
    # loop kicks the watchdog before it bites.
    soc.wdt.regs.reg("GRACE").hw_write(2 * period)
    soc.wdt.start()
    soc.timer.regs.reg("COMPARE").hw_write(period)
    soc.timer.start()
    return PreparedWatchdogRecovery(config, soc)
