"""Pinned kernel_stats instrumentation for a small armed-PWM scenario.

The scheduler counters (``next_event_calls``, ``spans_skipped``,
``dense_ticks``, ``cycles_skipped``) are the observable contract of the
cached wake-horizon scheduler and the consumer-aware fabric: the CI
perf-regression job asserts wall-clock floors, but wall clocks are noisy —
these exact counts are the deterministic net that catches a kernel refactor
(plan/state splits included) silently regressing the scheduler into extra
polls or extra wakes.

The scenario is the benchmark's ``figure5-idle`` SoC with the PWM actuator
armed at a 128-cycle period: under the consumer-aware fabric nothing
observes the PWM's ``period`` line, so the cached scheduler must cross the
whole horizon in one span; with every fabric line observed (as the fabric
was before it knew its consumers) it must wake exactly once per PWM period.
"""

from repro.bus.apb import ApbBus
from repro.bus.interconnect import SystemInterconnect
from repro.cpu.ibex import IbexCore
from repro.dma.udma import MicroDma
from repro.peripherals.adc import Adc
from repro.peripherals.i2c import I2cController
from repro.peripherals.pwm import Pwm
from repro.peripherals.spi import SpiController
from repro.peripherals.timer import Timer
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog
from repro.power.scenarios import build_idle_measurement_soc
from repro.sweep import campaign
from repro.sweep.execute import execute_campaign
from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline

HORIZON = 50_000
PWM_PERIOD = 128


def _armed_idle_soc(observe_all: bool):
    soc = build_idle_measurement_soc("pels", frequency_hz=27e6)
    if observe_all:
        # A blanket subscriber observes every event line, so the PWM must
        # wake for every period pulse, as before the fabric knew its
        # consumers.
        soc.fabric.subscribe(lambda line: None)
    soc.pwm.regs.reg("PERIOD").write(PWM_PERIOD)
    soc.pwm.start()
    soc.run(HORIZON)
    return soc


class TestCachedSchedulerCounts:
    def test_unobserved_pwm_crosses_the_horizon_in_one_span(self):
        soc = _armed_idle_soc(observe_all=False)
        stats = soc.simulator.kernel_stats
        # One initial poll of each of the 11 wake-cached components (seven
        # peripherals, the µDMA, the core and both bus fabrics) plus PELS,
        # the only volatile one, at both boundaries; then silence: the
        # armed-but-unobserved PWM never forces a boundary.
        assert stats["next_event_calls"] == 13
        assert stats["spans_skipped"] == 1
        assert stats["dense_ticks"] == 1
        assert stats["cycles_skipped"] == HORIZON - 1
        assert stats["plan_builds"] == 1

    def test_pwm_state_is_exact_despite_the_single_span(self):
        soc = _armed_idle_soc(observe_all=False)
        # 50_000 cycles = 390 full 128-cycle periods plus the armed cycle:
        # the O(1) multi-period skip replay must account every wrap.
        assert soc.pwm.periods_elapsed == HORIZON // PWM_PERIOD - 0 == 390

    def test_time_accounting_is_complete(self):
        soc = _armed_idle_soc(observe_all=False)
        stats = soc.simulator.kernel_stats
        assert stats["dense_ticks"] + stats["cycles_skipped"] == HORIZON


class TestEveryLineObservedCounts:
    def test_observed_pwm_wakes_once_per_period(self):
        soc = _armed_idle_soc(observe_all=True)
        stats = soc.simulator.kernel_stats
        periods = HORIZON // PWM_PERIOD  # 390
        # One dense tick per period wake plus the arming tick.
        assert stats["dense_ticks"] == periods + 1
        assert stats["spans_skipped"] == periods + 1
        assert stats["dense_ticks"] + stats["cycles_skipped"] == HORIZON
        # The 13 polls of the consumer-aware run, then two per period wake:
        # the PWM, whose deadline fired, and PELS, the only volatile one.
        assert stats["next_event_calls"] == 13 + 2 * periods == 793

    def test_both_fabrics_agree_on_the_pwm(self):
        consumer_aware = _armed_idle_soc(observe_all=False)
        observed = _armed_idle_soc(observe_all=True)
        assert consumer_aware.pwm.periods_elapsed == observed.pwm.periods_elapsed == 390
        assert (
            consumer_aware.pwm.regs.reg("COUNT").value == observed.pwm.regs.reg("COUNT").value
        )


class TestMultiLinkPipelineCounts:
    """Pinned counts for the default multi-link pipeline (PELS-heavy).

    The blinker link spends most of each sampling period in quiet microcode:
    counting ``wait`` down and fetching ``wait``/``loop``.  PELS reports
    those runs as horizons and its ``skip`` replays them, so the kernel skips
    them instead of ticking every cycle; idle links are not stepped either.
    The blinker's GPIO pad toggles are passive actions, replayed inside
    those runs too, and so is each link's closing ``end`` fetch.
    ``dense_ticks`` is the load-independent proxy for the PELS dense-tick
    cost (4,159 before WAIT windows were skipped, 1,849 while only the
    middle of each WAIT window was, 1,057 before passive actions were
    replayed, 793 before the ``end`` fetch was).
    """

    PIPELINE_HORIZON = 10_000

    def _run(self):
        prepared = prepare_multi_link_pipeline(MultiLinkPipelineConfig(horizon_cycles=self.PIPELINE_HORIZON))
        prepared.simulator.step(self.PIPELINE_HORIZON)
        return prepared.simulator.kernel_stats

    def test_wait_windows_are_skipped(self):
        stats = self._run()
        assert stats["dense_ticks"] == 661
        assert stats["cycles_skipped"] == 9339
        assert stats["spans_skipped"] == 199

    def test_time_accounting_is_complete(self):
        stats = self._run()
        assert stats["dense_ticks"] + stats["cycles_skipped"] == self.PIPELINE_HORIZON


class TestOwedTickCounts:
    """Pinned ``tick`` calls per component type over the whole
    ``pipeline-clock-ratio`` campaign.

    The event kernel ticks a wake-cached component only on the dense ticks
    where it is due (its deadline, or an invalidation); every other tick is
    owed and paid back in one ``skip``.  Before owed ticks every peripheral
    ran on all 27,942 dense ticks, and so did the SoC fabric (APB bus, SoC
    interconnect, µDMA, Ibex) until it was made wake-cacheable too.  Owing
    a tick changes who runs it, never when the kernel wakes: only
    ``next_event_calls`` fell then (77,085 → 44,365), because the fabric
    is no longer re-polled at every boundary.  Replaying each link's
    closing ``end`` fetch inside PELS's skips then moved the wake counters
    (dense ticks 27,942 → 23,287, spans 9,350 → 7,023, skipped cycles
    532,058 → 536,713, ``next_event`` calls 44,365 → 39,710) and left every
    per-peripheral ``tick`` count alone.
    """

    COMPONENTS = (
        Timer,
        Adc,
        Uart,
        Pwm,
        Watchdog,
        SpiController,
        I2cController,
        ApbBus,
        SystemInterconnect,
        MicroDma,
        IbexCore,
    )
    KERNEL = {
        "dense_ticks": 23_287,
        "spans_skipped": 7_023,
        "cycles_skipped": 536_713,
        "next_event_calls": 39_710,
    }

    def test_only_due_peripherals_tick(self, monkeypatch):
        calls = {cls.__name__: 0 for cls in self.COMPONENTS}

        def counting(cls):
            tick = cls.tick

            def wrapper(self, cycle):
                calls[cls.__name__] += 1
                tick(self, cycle)

            return wrapper

        for cls in self.COMPONENTS:
            monkeypatch.setattr(cls, "tick", counting(cls))
        result = execute_campaign(campaign("pipeline-clock-ratio"))
        assert calls == {
            "Timer": 2_328,
            "Adc": 2_328,
            "Uart": 2_327,
            "Pwm": 0,
            "Watchdog": 0,
            "SpiController": 0,
            "I2cController": 0,
            "ApbBus": 4_656,
            "SystemInterconnect": 0,
            "MicroDma": 0,
            "IbexCore": 0,
        }
        counters = result.telemetry["metrics"]["counter"]
        assert {key: counters[f"kernel.{key}"] for key in self.KERNEL} == self.KERNEL


class TestSmokeCampaignCounts:
    """Pinned scheduler counters of the ``smoke`` campaign, whose SPI
    readouts run through the µDMA.

    The µDMA posts its SRAM writes, so it ticks once per word it moves and
    never again to retire a finished write.  That tick used to force 43
    extra dense ticks here (606 dense ticks, 119,394 skipped cycles, 1,789
    ``next_event`` calls and 606 batch rounds); a µDMA that polls its own
    writes again fails this pin.
    """

    KERNEL = {
        "dense_ticks": 563,
        "spans_skipped": 131,
        "cycles_skipped": 119_437,
        "next_event_calls": 1_574,
    }

    def test_scheduler_counters(self):
        counters = execute_campaign(campaign("smoke")).telemetry["metrics"]["counter"]
        assert {key: counters[f"kernel.{key}"] for key in self.KERNEL} == self.KERNEL
        # A round (one advance_span call) skips a span, takes a dense tick,
        # or both; on this campaign every round takes a dense tick.
        assert counters["batch.rounds"] == 563
