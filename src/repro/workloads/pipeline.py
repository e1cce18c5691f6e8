"""Multi-link autonomous sensing pipeline as a sweepable workload.

This is the scenario behind ``examples/multi_link_pipeline.py``, packaged for
the registry and the sweep subsystem.  Three specialised links chain three
stages (Section III of the paper):

* **link 0** — timer overflow starts an ADC conversion (instant action);
* **link 1** — ADC end-of-conversion writes a UART alert byte (sequenced
  action against the UART's own base address) and fires a loopback event;
* **link 2** — the loopback event wakes a ``wait``/``loop`` blinker that
  toggles a GPIO pad ``blink_count`` times.

The main CPU never wakes.  The sweepable **clock ratio** models the divider
between the SoC base clock and the I/O shift clock: peripherals whose work is
paced by the shift clock (ADC conversion, UART framing) take ``clock_ratio``
times as many base-clock cycles per unit of work, which is how a divided
functional clock manifests in a single-time-base simulation.  Sweeping it
shows when the pipeline's service time overruns the sampling period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assembler import Assembler
from repro.core.config import PelsConfig
from repro.soc.pulpissimo import PulpissimoSoc, SocConfig, build_soc
from repro.workloads.registry import PreparedScenario, ScenarioOutcome

#: Base service times at clock ratio 1 (in base-clock cycles).
BASE_ADC_CONVERSION_CYCLES = 8
BASE_UART_CYCLES_PER_BYTE = 10


@dataclass(frozen=True)
class MultiLinkPipelineConfig:
    """Parameters of the multi-link pipeline scenario."""

    timer_period_cycles: int = 150
    #: Divider between the SoC base clock and the peripheral shift clock.
    clock_ratio: int = 1
    blink_count: int = 3
    blink_gap_cycles: int = 10
    horizon_cycles: int = 50_000
    dense: bool = False

    def __post_init__(self) -> None:
        if self.timer_period_cycles < 60:
            raise ValueError("the pipeline needs a sampling period >= 60 cycles")
        if not 1 <= self.clock_ratio <= 16:
            raise ValueError("clock_ratio must be in [1, 16]")
        if self.blink_count < 1:
            raise ValueError("the blinker must blink at least once")
        if self.blink_gap_cycles < 1:
            raise ValueError("the blink gap must be at least one cycle")
        if self.horizon_cycles < 2 * self.timer_period_cycles:
            raise ValueError("the horizon must cover at least two sampling periods")


class PreparedPipeline(PreparedScenario):
    """A programmed multi-link pipeline, ready to run (or to be advanced by
    the batched executor)."""

    def __init__(self, config: MultiLinkPipelineConfig, soc: PulpissimoSoc) -> None:
        self.config = config
        self.soc = soc

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        """The pipeline as of ``elapsed_cycles`` simulated cycles.

        Reading the counters at an intermediate cycle of a longer run is
        identical to finishing a run of exactly that horizon: the simulation
        is deterministic and none of the setup depends on the horizon.
        """
        soc = self.soc
        pels = soc.pels
        assert pels is not None
        stats = {
            "timer_overflows": soc.timer.overflow_count,
            "adc_conversions": soc.adc.conversions,
            "uart_bytes": len(soc.uart.transmitted),
            "gpio_toggles": soc.gpio.toggle_count,
            "link_events_serviced": sum(link.events_serviced for link in pels.links),
            "instant_actions": pels.instant_actions_delivered,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "horizon_cycles": elapsed_cycles,
        }
        return ScenarioOutcome(stats=stats, soc=soc)


def prepare_multi_link_pipeline(
    config: MultiLinkPipelineConfig = MultiLinkPipelineConfig(),
) -> PreparedPipeline:
    """Build and program the multi-link pipeline without running it."""
    soc = build_soc(
        SocConfig(
            pels_config=PelsConfig(n_links=4, scm_lines=8),
            adc_conversion_cycles=BASE_ADC_CONVERSION_CYCLES * config.clock_ratio,
            dense=config.dense,
        )
    )
    assert soc.pels is not None
    pels = soc.pels
    assembler = Assembler()
    soc.uart.regs.reg("BAUD_CYCLES").hw_write(BASE_UART_CYCLES_PER_BYTE * config.clock_ratio)

    # Link 0: timer overflow -> ADC conversion (instant action).
    pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    pels.program_link(0, assembler.assemble("action 0 0x1\nend"), trigger_mask=timer_bit)

    # Link 1: ADC EOC -> UART alert byte (sequenced, UART-specialised base
    # address) + loopback event waking the blinker link.
    wake_blinker = pels.add_loopback_line("wake_blinker")
    pels.route_action_to_fabric(group=1, bit=0, line_name=wake_blinker)
    uart_assembler = Assembler()
    uart_assembler.define_register("UART_TX", soc.uart.regs.offset_of("TXDATA"))
    adc_bit = 1 << soc.fabric.index_of(soc.adc.event_line_name("eoc"))
    pels.program_link(
        1,
        uart_assembler.assemble(
            """
            write UART_TX 0x21   ; '!' alert byte
            action 1 0x1         ; wake the blinker link through the loopback line
            end
            """
        ),
        trigger_mask=adc_bit,
        base_address=soc.address_map.peripheral_base("uart"),
    )

    # Link 2: watchdog-style blinker (wait/loop microcode).
    pels.route_action_to_peripheral(group=2, bit=0, peripheral=soc.gpio, port="toggle_pad0")
    blinker_bit = 1 << soc.fabric.index_of(wake_blinker)
    pels.program_link(
        2,
        assembler.assemble(
            f"""
            BLINK: action 2 0x1
            wait {config.blink_gap_cycles}
            loop BLINK {config.blink_count}
            end
            """
        ),
        trigger_mask=blinker_bit,
    )

    soc.timer.regs.reg("COMPARE").hw_write(config.timer_period_cycles)
    soc.timer.start()
    return PreparedPipeline(config, soc)
