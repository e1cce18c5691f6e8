"""Fault-injection tests: bus error responses, mis-programmed links, trigger floods.

A mis-programmed PELS link (wrong base address or offset) must not wedge the
peripheral bus or the link itself — the APB answers with an error response
(PSLVERR) and the link abandons the sequence, staying ready for the next
event.  These tests inject such faults and check the system degrades
gracefully.
"""

from repro.bus.apb import ApbBus
from repro.bus.transaction import read_request
from repro.core.assembler import assemble
from repro.core.config import PelsConfig
from repro.sim.simulator import Simulator
from repro.soc.pulpissimo import SocConfig, build_soc


class TestApbErrorResponse:
    def test_unmapped_address_completes_with_error(self):
        simulator = Simulator()
        bus = ApbBus("apb")
        simulator.add_component(bus)
        request = bus.submit(read_request("m0", 0xDEAD_0000))
        simulator.step(2)
        assert request.done
        assert request.error
        assert request.rdata == 0
        assert simulator.activity.get("apb", "decode_errors") == 1

    def test_error_does_not_block_following_transfers(self):
        simulator = Simulator()
        bus = ApbBus("apb")

        class Slave:
            name = "ok"

            def bus_read(self, offset):
                return 0x55

            def bus_write(self, offset, value):
                pass

        bus.attach_slave(0x1000, 0x100, Slave())
        simulator.add_component(bus)
        bad = bus.submit(read_request("m0", 0xDEAD_0000))
        good = bus.submit(read_request("m0", 0x1000))
        simulator.step(5)
        assert bad.error
        assert good.done and not good.error and good.rdata == 0x55


class TestMisprogrammedLink:
    def make_soc(self):
        return build_soc(SocConfig(pels_config=PelsConfig(n_links=2, scm_lines=4)))

    def trigger_timer_once(self, soc):
        soc.timer.regs.reg("COMPARE").hw_write(2)
        soc.timer.regs.reg("CTRL").hw_write(0x3)

    def test_bad_base_address_aborts_sequence_without_hanging(self):
        soc = self.make_soc()
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        # Base address points at a hole in the address map.
        soc.pels.program_link(0, assemble("set 0x10 0x1\nend"), trigger_mask=timer_bit, base_address=0x1B00_0000)
        self.trigger_timer_once(soc)
        soc.run(60)
        link = soc.pels.link(0)
        assert not link.busy
        assert link.execution.bus_errors == 1
        assert link.execution.sequences_aborted == 1

    def test_link_recovers_and_services_the_next_event(self):
        soc = self.make_soc()
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        link = soc.pels.program_link(
            0, assemble("set 0x10 0x1\nend"), trigger_mask=timer_bit, base_address=0x1B00_0000
        )
        self.trigger_timer_once(soc)
        soc.run(40)
        # Repair the base address (as firmware would after noticing the error counter)
        # and fire another event: the link must service it normally.
        link.set_base_address(soc.address_map.peripheral_base("gpio"))
        program = assemble(f"set {soc.gpio.regs.offset_of('OUT') // 4} 0x1\nend")
        link.load_program(program)
        self.trigger_timer_once(soc)
        soc.run(40)
        assert soc.gpio.pad(0)
        assert link.execution.sequences_completed >= 1

    def test_healthy_link_unaffected_by_faulty_neighbour(self):
        soc = self.make_soc()
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        base = soc.address_map.peripheral_base("udma")
        gpio_out = (soc.address_map.peripheral_base("gpio") + soc.gpio.regs.offset_of("OUT") - base) // 4
        soc.pels.program_link(0, assemble("set 0x10 0x1\nend"), trigger_mask=timer_bit, base_address=0x1B00_0000)
        soc.pels.program_link(1, assemble(f"set {gpio_out} 0x1\nend"), trigger_mask=timer_bit, base_address=base)
        self.trigger_timer_once(soc)
        soc.run(60)
        assert soc.gpio.pad(0)
        assert soc.pels.link(0).execution.bus_errors == 1
        assert soc.pels.link(1).execution.bus_errors == 0


class TestIbexBusError:
    def test_handler_survives_error_response(self):
        soc = build_soc(SocConfig(with_pels=False))
        # The handler loads from a valid peripheral, then stores to a hole
        # behind the peripheral bridge region... there is none reachable via
        # the bridge (the interconnect validates), so inject the error on the
        # APB directly instead: a PELS-less SoC has no master doing that, so
        # simply check that a load of a valid address after an injected APB
        # error still works.
        bad = soc.peripheral_bus.submit(read_request("probe", 0x1A10_0FF0 + 0x10000))
        soc.run(3)
        assert bad.done and bad.error
        good = soc.peripheral_bus.submit(read_request("probe", soc.register_address("gpio", "OUT")))
        soc.run(4)
        assert good.done and not good.error


class TestTriggerFlood:
    def test_event_flood_drops_excess_triggers_but_keeps_running(self):
        soc = build_soc(SocConfig(pels_config=PelsConfig(n_links=1, scm_lines=4, fifo_depth=2)))
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        base = soc.address_map.peripheral_base("udma")
        gpio_toggle = (soc.address_map.peripheral_base("gpio") + soc.gpio.regs.offset_of("TOGGLE") - base) // 4
        link = soc.pels.program_link(
            0, assemble(f"write {gpio_toggle} 0x1\nend"), trigger_mask=timer_bit, base_address=base
        )
        soc.timer.regs.reg("COMPARE").hw_write(1)  # an event every cycle: far too fast
        soc.timer.start()
        soc.run(30)
        soc.timer.stop()
        soc.run(100)
        assert link.trigger.fifo.dropped > 0
        assert link.events_serviced > 0
        assert not link.busy
