"""Tests for the firmware-style PELS driver (configuration over the bus only)."""

import pytest

from repro.core.assembler import Assembler
from repro.core.trigger import TriggerCondition
from repro.soc.pulpissimo import SocConfig, build_soc
from repro.software.driver import PelsDriver


def make_driver():
    soc = build_soc(SocConfig())
    return soc, PelsDriver(soc)


class TestPelsDriver:
    def test_probe_reads_identification(self):
        soc, driver = make_driver()
        info = driver.probe()
        assert info == {"n_links": 4, "scm_lines": 6, "enabled": True}
        assert driver.transfers_issued == 3

    def test_requires_pels(self):
        soc = build_soc(SocConfig(with_pels=False))
        with pytest.raises(ValueError):
            PelsDriver(soc)

    def test_global_enable_roundtrip(self):
        soc, driver = make_driver()
        driver.set_global_enable(False)
        assert not soc.pels.enabled
        driver.set_global_enable(True)
        assert soc.pels.enabled

    def test_upload_program_lands_in_scm(self):
        soc, driver = make_driver()
        assembler = Assembler()
        program = assembler.assemble("set 0x401 0x1\nend")
        driver.upload_program(0, program)
        stored = soc.pels.link(0).scm.dump()
        assert stored[0] == program[0]
        assert all(command.opcode.name == "END" for command in stored[1:])

    def test_upload_program_too_large_rejected(self):
        soc, driver = make_driver()
        program = [  # 7 commands > 6 SCM lines
            *([Assembler().assemble("action 0 1\nend")[0]] * 7)
        ]
        with pytest.raises(ValueError):
            driver.upload_program(0, program)

    def test_configure_trigger_and_enable(self):
        soc, driver = make_driver()
        driver.configure_trigger(
            1, mask=0b110, condition=TriggerCondition.ALL_SELECTED_ACTIVE, base_address=0x1A10_1000
        )
        driver.enable_link(1)
        link = soc.pels.link(1)
        assert link.trigger.mask == 0b110
        assert link.trigger.condition is TriggerCondition.ALL_SELECTED_ACTIVE
        assert link.execution.base_address == 0x1A10_1000
        assert link.trigger.enabled

    def test_link_index_bounds(self):
        _, driver = make_driver()
        with pytest.raises(IndexError):
            driver.enable_link(9)

    def test_end_to_end_linking_configured_only_through_the_driver(self):
        """Firmware-only bring-up: the timer event ends up setting the GPIO pad."""
        soc, driver = make_driver()
        assembler = Assembler()
        gpio_out_word = (
            soc.address_map.peripheral_base("gpio")
            + soc.gpio.regs.offset_of("OUT")
            - soc.address_map.peripheral_base("udma")
        ) // 4
        program = assembler.assemble(f"set {gpio_out_word} 0x1\nend")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        driver.setup_link(
            0,
            program,
            trigger_mask=timer_bit,
            base_address=soc.address_map.peripheral_base("udma"),
        )
        soc.timer.regs.reg("COMPARE").hw_write(5)
        soc.timer.regs.reg("CTRL").hw_write(0x3)
        soc.run(60)
        assert soc.gpio.pad(0)
        status = driver.link_status(0)
        assert status["enabled"] and not status["busy"]

    def test_status_and_capture_readback(self):
        soc, driver = make_driver()
        status = driver.link_status(2)
        assert status == {"fifo_level": 0, "enabled": False, "condition_and": False, "busy": False}
        soc.pels.link(2).execution.capture_register = 0x77
        assert driver.read_capture(2) == 0x77

    def test_every_access_costs_simulated_cycles(self):
        """Driver accesses traverse the bridge + APB, so simulated time advances."""
        soc, driver = make_driver()
        before = soc.simulator.current_cycle
        driver.probe()
        assert soc.simulator.current_cycle > before
