"""Differential property tests: event-driven scheduling must equal dense.

The event-driven kernel's whole claim is cycle-exact equivalence with the
legacy cycle-driven kernel: identical traces, identical activity counters,
identical final register state — for *any* configuration and any step
chunking.  These tests generate random peripheral/link configurations, run
the same stimulus under both kernels, and compare everything observable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembler import Assembler
from repro.peripherals.pwm import Pwm
from repro.peripherals.sensor import SensorWaveform
from repro.peripherals.timer import Timer
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog
from repro.sim.simulator import Simulator
from repro.soc.pulpissimo import SocConfig, build_soc

PERIPHERAL_NAMES = ("spi", "adc", "gpio", "uart", "i2c", "pwm", "wdt", "timer")


def _register_state(soc):
    return {
        name: {register.name: register.value for register in getattr(soc, name).regs.registers()}
        for name in PERIPHERAL_NAMES
    }


def _counters(soc):
    counters = {
        "timer_overflows": soc.timer.overflow_count,
        "adc_conversions": soc.adc.conversions,
        "spi_transfers": soc.spi.transfers_completed,
        "spi_words": soc.spi.words_received,
        "pwm_periods": soc.pwm.periods_elapsed,
        "pwm_duty_updates": soc.pwm.duty_updates,
        "pwm_high_cycles": soc.pwm.output_high_cycles,
        "wdt_kicks": soc.wdt.kicks,
        "wdt_barks": soc.wdt.barks,
        "wdt_bites": soc.wdt.bites,
        "dma_words": soc.udma.total_words_moved,
        "cpu_sleep_cycles": soc.cpu.sleep_cycles,
        "cpu_interrupts": soc.cpu.interrupts_serviced,
        "fabric_pulses": soc.fabric.total_pulses,
    }
    if soc.pels is not None:
        counters["pels_events"] = soc.pels.total_events_serviced()
        counters["pels_actions"] = soc.pels.instant_actions_delivered
        counters["link_latencies"] = tuple(
            tuple(record.total_latency for record in link.records) for link in soc.pels.links
        )
    return counters


soc_scenario = st.fixed_dictionaries(
    {
        "timer_compare": st.integers(min_value=20, max_value=150),
        "timer_prescaler": st.integers(min_value=0, max_value=3),
        "adc_conversion_cycles": st.integers(min_value=1, max_value=12),
        "pwm_period": st.integers(min_value=8, max_value=96),
        "pwm_enabled": st.booleans(),
        "wdt_timeout": st.integers(min_value=40, max_value=300),
        "wdt_grace": st.integers(min_value=10, max_value=80),
        "wdt_enabled": st.booleans(),
        "link_adc": st.booleans(),
        "link_pwm": st.booleans(),
        "link_kick": st.booleans(),
        "spi_words": st.integers(min_value=1, max_value=4),
        "spi_clk_div": st.integers(min_value=1, max_value=6),
        "with_dma": st.booleans(),
        "uart_bytes": st.integers(min_value=0, max_value=2),
        "amplitude": st.integers(min_value=1, max_value=255),
        "horizon": st.integers(min_value=150, max_value=1200),
        "chunks": st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=5),
    }
)


def _run_soc_scenario(params, dense):
    soc = build_soc(
        SocConfig(
            sensor_waveform=SensorWaveform(kind="ramp", amplitude=params["amplitude"], step=3),
            spi_cycles_per_word=params["spi_clk_div"],
            adc_conversion_cycles=params["adc_conversion_cycles"],
            dense=dense,
        )
    )
    pels = soc.pels
    assert pels is not None
    assembler = Assembler()
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    adc_bit = 1 << soc.fabric.index_of(soc.adc.event_line_name("eoc"))

    if params["link_adc"]:
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
        pels.route_action_to_peripheral(group=0, bit=1, peripheral=soc.spi, port="start")
        pels.program_link(0, assembler.assemble("action 0 0x3\nend"), trigger_mask=timer_bit)
    if params["link_pwm"]:
        adc_base = soc.address_map.peripheral_base("adc")
        adc_data = (soc.register_address("adc", "DATA") - adc_base) // 4
        pwm_shadow = (soc.register_address("pwm", "DUTY_SHADOW") - adc_base) // 4
        pels.route_action_to_peripheral(group=1, bit=0, peripheral=soc.pwm, port="update")
        pels.program_link(
            1,
            assembler.assemble(f"capture {adc_data} 0xFF\nwrite {pwm_shadow} 0x40\naction 1 0x1\nend"),
            trigger_mask=adc_bit,
            base_address=adc_base,
        )
    if params["link_kick"]:
        pels.route_action_to_peripheral(group=2, bit=0, peripheral=soc.wdt, port="kick")
        pels.program_link(2, assembler.assemble("action 2 0x1\nend"), trigger_mask=adc_bit | timer_bit)

    if params["with_dma"]:
        soc.udma.add_channel(
            source=soc.spi,
            destination_address=soc.address_map.sram_base + 0x200,
            length_words=params["spi_words"],
        )
    soc.spi.regs.reg("LEN").hw_write(params["spi_words"])

    soc.pwm.regs.reg("PERIOD").hw_write(params["pwm_period"])
    if params["pwm_enabled"]:
        soc.pwm.start()
    soc.wdt.regs.reg("TIMEOUT").hw_write(params["wdt_timeout"])
    soc.wdt.regs.reg("GRACE").hw_write(params["wdt_grace"])
    if params["wdt_enabled"]:
        soc.wdt.start()
    soc.timer.regs.reg("PRESCALER").hw_write(params["timer_prescaler"])
    soc.timer.regs.reg("COMPARE").hw_write(params["timer_compare"])
    soc.timer.start()
    for index in range(params["uart_bytes"]):
        soc.uart.regs.reg("TXDATA").write(0x41 + index)

    remaining = params["horizon"]
    snapshots = []
    for chunk in params["chunks"]:
        chunk = min(chunk, remaining)
        soc.simulator.step(chunk)
        remaining -= chunk
        # Mid-run observability: a skipped span must leave the same activity
        # totals behind as dense stepping at every step() boundary, not just
        # at the end of the run.
        snapshots.append(soc.activity.as_dict())
    soc.simulator.step(remaining)
    return soc, snapshots


class TestSocDifferential:
    @settings(max_examples=25, deadline=None)
    @given(params=soc_scenario)
    def test_event_driven_equals_dense(self, params):
        dense_soc, dense_snapshots = _run_soc_scenario(params, dense=True)
        event_soc, event_snapshots = _run_soc_scenario(params, dense=False)

        assert dense_snapshots == event_snapshots
        assert dense_soc.simulator.current_cycle == event_soc.simulator.current_cycle
        assert _counters(dense_soc) == _counters(event_soc)
        assert _register_state(dense_soc) == _register_state(event_soc)
        assert dense_soc.activity.as_dict() == event_soc.activity.as_dict()
        assert (
            dense_soc.simulator.traces.merged_timeline()
            == event_soc.simulator.traces.merged_timeline()
        )


component_scenario = st.fixed_dictionaries(
    {
        "timer_compare": st.integers(min_value=1, max_value=60),
        "timer_prescaler": st.integers(min_value=0, max_value=5),
        "pwm_period": st.integers(min_value=1, max_value=40),
        "pwm_duty": st.integers(min_value=0, max_value=40),
        "wdt_timeout": st.integers(min_value=1, max_value=80),
        "wdt_grace": st.integers(min_value=1, max_value=30),
        "uart_bytes": st.integers(min_value=0, max_value=3),
        "uart_baud": st.integers(min_value=1, max_value=12),
        "horizon": st.integers(min_value=1, max_value=400),
        "chunks": st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=4),
    }
)


def _run_component_scenario(params, dense):
    """Bare simulator with free-running peripherals (no SoC)."""
    simulator = Simulator(dense=dense)

    timer = Timer(compare=params["timer_compare"])
    timer.regs.reg("PRESCALER").hw_write(params["timer_prescaler"])
    simulator.add_component(timer)
    timer.start()

    pwm = Pwm(period=params["pwm_period"], duty=min(params["pwm_duty"], params["pwm_period"]))
    simulator.add_component(pwm)
    pwm.start()

    wdt = Watchdog(timeout=params["wdt_timeout"], grace=params["wdt_grace"])
    simulator.add_component(wdt)
    wdt.start()

    uart = Uart(cycles_per_byte=params["uart_baud"])
    simulator.add_component(uart)
    for index in range(params["uart_bytes"]):
        uart.regs.reg("TXDATA").write(index)

    remaining = params["horizon"]
    for chunk in params["chunks"]:
        chunk = min(chunk, remaining)
        simulator.step(chunk)
        remaining -= chunk
    simulator.step(remaining)
    return simulator, (timer, pwm, wdt, uart)


class TestComponentDifferential:
    @settings(max_examples=40, deadline=None)
    @given(params=component_scenario)
    def test_free_running_peripherals_equal_dense(self, params):
        dense_sim, dense_parts = _run_component_scenario(params, dense=True)
        event_sim, event_parts = _run_component_scenario(params, dense=False)

        assert dense_sim.current_cycle == event_sim.current_cycle
        assert dense_sim.activity.as_dict() == event_sim.activity.as_dict()
        for dense_part, event_part in zip(dense_parts, event_parts):
            dense_regs = {r.name: r.value for r in dense_part.regs.registers()}
            event_regs = {r.name: r.value for r in event_part.regs.registers()}
            assert dense_regs == event_regs
        dense_timer, dense_pwm, dense_wdt, dense_uart = dense_parts
        event_timer, event_pwm, event_wdt, event_uart = event_parts
        assert dense_timer.overflow_count == event_timer.overflow_count
        assert dense_pwm.output_high_cycles == event_pwm.output_high_cycles
        assert (dense_wdt.barks, dense_wdt.bites) == (event_wdt.barks, event_wdt.bites)
        assert dense_uart.transmitted == event_uart.transmitted
