"""End-to-end integration tests across the whole SoC.

These tests exercise complete linking scenarios — timer to ADC, SPI/µDMA to
GPIO, multi-link pipelines — through the public API, the way a user of the
library would.
"""

from repro.core.assembler import Assembler
from repro.peripherals.sensor import SensorWaveform
from repro.soc.pulpissimo import SocConfig, build_soc


def peripheral_word_offset(soc, peripheral_name, register_name):
    """Word offset of a register relative to the peripheral region base."""
    base = soc.address_map.peripheral_base("udma")
    absolute = soc.register_address(peripheral_name, register_name)
    return (absolute - base) // 4


class TestTimerToAdcLinking:
    """The paper's first motivating example: a periodic timer overflow triggers an ADC conversion."""

    def test_timer_overflow_starts_adc_conversions_without_cpu(self):
        soc = build_soc()
        pels = soc.pels
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
        assembler = Assembler()
        program = assembler.assemble("action 0 0x1\nend")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        pels.program_link(0, program, trigger_mask=timer_bit)

        soc.timer.regs.reg("COMPARE").hw_write(20)
        soc.timer.start()
        soc.run(200)

        assert soc.timer.overflow_count >= 8
        assert soc.adc.conversions >= 5
        assert soc.cpu.interrupts_serviced == 0

    def test_adc_eoc_chains_into_uart_notification(self):
        """Two links chained through real peripheral events (no loopback needed)."""
        soc = build_soc()
        pels = soc.pels
        assembler = Assembler()
        # Link 1 uses the UART window itself as its base address, demonstrating
        # the per-link base-address mechanism that keeps offsets within 12 bits.
        assembler.define_register("UART_TX", soc.uart.regs.offset_of("TXDATA"))
        # Link 0: timer overflow -> start ADC (instant action).
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.adc, port="soc")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        pels.program_link(0, assembler.assemble("action 0 0x1\nend"), trigger_mask=timer_bit)
        # Link 1: ADC end-of-conversion -> write an alert byte to the UART (sequenced action).
        adc_bit = 1 << soc.fabric.index_of(soc.adc.event_line_name("eoc"))
        pels.program_link(
            1,
            assembler.assemble("write UART_TX 0x41\nend"),
            trigger_mask=adc_bit,
            base_address=soc.address_map.peripheral_base("uart"),
        )
        soc.timer.regs.reg("COMPARE").hw_write(30)
        soc.timer.start()
        soc.run(400)
        assert soc.adc.conversions >= 5
        assert soc.uart.transmitted
        assert all(byte == 0x41 for byte in soc.uart.transmitted)


class TestFigure3Program:
    """The full Figure 3 dual-mode program against the real SPI + GPIO peripherals."""

    def build(self, threshold=50, sample=90, instant=False):
        soc = build_soc(SocConfig(sensor_waveform=SensorWaveform(kind="constant", amplitude=sample)))
        pels = soc.pels
        base = soc.address_map.peripheral_base("udma")
        assembler = Assembler()
        assembler.define_symbol("AFLAG", peripheral_word_offset(soc, "spi", "AFLAG"))
        assembler.define_symbol("ADATA", peripheral_word_offset(soc, "spi", "RXDATA"))
        assembler.define_symbol("AGPIO", peripheral_word_offset(soc, "gpio", "OUT"))
        assembler.define_symbol("THRES", threshold)
        alert = "action 0 0x1" if instant else "set AGPIO 0x1"
        program = assembler.assemble(
            f"""
            CMD0: clear   AFLAG 0x1
            CMD1: capture ADATA 0x0FF
            CMD2: jump-if CMD4 LE THRES
            CMD3: {alert}
            CMD4: end
            """
        )
        if instant:
            pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.gpio, port="set_pad0")
        spi_bit = 1 << soc.fabric.index_of(soc.spi.event_line_name("eot"))
        pels.program_link(0, program, trigger_mask=spi_bit, base_address=base)
        return soc

    def run_one_transfer(self, soc):
        soc.spi.regs.reg("LEN").hw_write(1)
        soc.spi.regs.write(soc.spi.regs.offset_of("CTRL"), 0x1)
        soc.run(60)

    def test_alert_raised_above_threshold_sequenced(self):
        soc = self.build(sample=90)
        self.run_one_transfer(soc)
        assert soc.gpio.pad(0)
        assert soc.pels.link(0).events_serviced == 1

    def test_no_alert_below_threshold(self):
        soc = self.build(sample=10)
        self.run_one_transfer(soc)
        assert not soc.gpio.pad(0)

    def test_alert_raised_instant_mode(self):
        soc = self.build(sample=90, instant=True)
        self.run_one_transfer(soc)
        assert soc.gpio.pad(0)

    def test_aflag_cleared_by_first_command(self):
        soc = self.build(sample=90)
        soc.spi.regs.reg("AFLAG").hw_write(0xFF)
        self.run_one_transfer(soc)
        assert soc.spi.regs.reg("AFLAG").value == 0xFE  # bit 0 cleared by the RMW


class TestWatchdogStyleLink:
    """The loop/wait commands subsume watchdog-like functions without an external timer."""

    def test_wait_loop_periodically_toggles_gpio(self):
        soc = build_soc()
        pels = soc.pels
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.gpio, port="toggle_pad0")
        assembler = Assembler()
        program = assembler.assemble(
            """
            BODY: action 0 0x1
            wait 20
            loop BODY 3
            end
            """
        )
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        pels.program_link(0, program, trigger_mask=timer_bit)
        soc.timer.regs.reg("COMPARE").hw_write(5)
        soc.timer.regs.reg("CTRL").hw_write(0x3)  # one shot
        soc.run(150)
        assert soc.gpio.toggle_count == 4  # initial pass + 3 loop iterations


class TestWorstCaseContention:
    def test_all_links_triggered_simultaneously_all_complete(self):
        """Section III-1: the worst case is every link accessing peripherals at once."""
        from repro.core.config import PelsConfig

        soc = build_soc(SocConfig(pels_config=PelsConfig(n_links=8, scm_lines=4)))
        pels = soc.pels
        assembler = Assembler()
        base = soc.address_map.peripheral_base("udma")
        # Each link targets the write-1-to-set register so concurrent links do
        # not race on a shared read-modify-write of the OUT latch.
        gpio_set = peripheral_word_offset(soc, "gpio", "SET")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        for index in range(8):
            program = assembler.assemble(f"write {gpio_set} {1 << index}\nend")
            pels.program_link(index, program, trigger_mask=timer_bit, base_address=base)
        soc.timer.regs.reg("COMPARE").hw_write(3)
        soc.timer.regs.reg("CTRL").hw_write(0x3)
        soc.run(200)
        assert soc.gpio.output_value == 0xFF
        assert pels.total_events_serviced() == 8
        # Round-robin arbitration bounds the spread of completion times.
        records = [pels.link(i).last_record for i in range(8)]
        latencies = sorted(record.sequenced_latency for record in records)
        assert latencies[0] == 4  # a plain write needs no read phase
        assert latencies[-1] <= 4 + 8 * 4


class TestBusConfiguredPels:
    def test_cpu_can_program_a_link_over_the_peripheral_bus(self):
        """Firmware-style configuration: microcode and trigger setup written via APB."""
        from repro.bus.transaction import write_request
        from repro.core.isa import Command, encode_command
        from repro.core.pels import LINK_REG_ENABLE, LINK_REG_MASK, LINK_SCM_WINDOW, LINK_WINDOW_BASE

        soc = build_soc()
        pels_base = soc.address_map.peripheral_base("pels")
        gpio_out = peripheral_word_offset(soc, "gpio", "OUT")
        commands = [Command.set(gpio_out, 0x1), Command.end()]
        for line, command in enumerate(commands):
            encoded = encode_command(command)
            word_base = pels_base + LINK_WINDOW_BASE + LINK_SCM_WINDOW + 8 * line
            soc.peripheral_bus.submit(write_request("ibex", word_base, encoded & 0xFFFF_FFFF))
            soc.peripheral_bus.submit(write_request("ibex", word_base + 4, (encoded >> 32) & 0xFFFF))
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        soc.peripheral_bus.submit(write_request("ibex", pels_base + LINK_WINDOW_BASE + LINK_REG_MASK, timer_bit))
        soc.peripheral_bus.submit(write_request("ibex", pels_base + LINK_WINDOW_BASE + LINK_REG_ENABLE, 1))
        soc.run(20)  # let the configuration writes drain

        soc.pels.link(0).set_base_address(soc.address_map.peripheral_base("udma"))
        soc.timer.regs.reg("COMPARE").hw_write(3)
        soc.timer.regs.reg("CTRL").hw_write(0x3)
        soc.run(60)
        assert soc.gpio.pad(0)
