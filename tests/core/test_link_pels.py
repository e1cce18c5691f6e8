"""Tests for the Link composition and the PELS top level."""

import pytest

from repro.bus.apb import ApbBus
from repro.core.assembler import assemble
from repro.core.config import PelsConfig
from repro.core.execution import ExecutionState
from repro.core.isa import Command
from repro.core.pels import (
    LINK_REG_BASE_ADDR,
    LINK_REG_CAPTURE,
    LINK_REG_CONDITION,
    LINK_REG_ENABLE,
    LINK_REG_MASK,
    LINK_REG_STATUS,
    LINK_SCM_WINDOW,
    LINK_WINDOW_BASE,
    LINK_WINDOW_STRIDE,
    REG_GLOBAL_CTRL,
    REG_NUM_LINKS,
    REG_SCM_LINES,
    Pels,
)
from repro.core.trigger import TriggerCondition
from repro.peripherals.adc import Adc
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.sim.simulator import SimulationError, Simulator
from repro.soc.pulpissimo import SocConfig, build_soc


def build_pels(n_links=2, scm_lines=6, with_gpio=True):
    """Standalone PELS + GPIO + APB test bench."""
    simulator = Simulator()
    fabric = EventFabric()
    fabric.add_line("ext.event0", producer="test")
    fabric.add_line("ext.event1", producer="test")
    bus = ApbBus("apb")
    gpio = None
    if with_gpio:
        gpio = Gpio("gpio")
        gpio.connect_events(fabric)
        bus.attach_slave(0x1000, 0x1000, gpio)
        simulator.add_component(gpio)
    pels = Pels(PelsConfig(n_links=n_links, scm_lines=scm_lines), fabric, peripheral_bus=bus)
    simulator.add_component(pels)
    simulator.add_component(bus)
    return simulator, fabric, bus, gpio, pels


class TestLinkBasics:
    def test_program_too_large_for_scm_rejected(self):
        _, _, _, _, pels = build_pels(scm_lines=4)
        with pytest.raises(ValueError):
            pels.link(0).load_program([Command.end()] * 5)

    def test_link_lookup_bounds(self):
        _, _, _, _, pels = build_pels(n_links=2)
        assert pels.link(1).index == 1
        with pytest.raises(IndexError):
            pels.link(2)

    def test_status_word_reports_busy(self):
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble("wait 10\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(3)
        assert pels.link(0).busy
        assert pels.link(0).status_word() & (1 << 10)
        assert pels.busy


class TestSequencedLinking:
    def test_set_command_modifies_gpio_register(self):
        simulator, fabric, _, gpio, pels = build_pels()
        program = assemble("set 0x401 0x1\nend")  # word offset 0x401 = GPIO OUT at 0x1004
        pels.program_link(0, program, trigger_mask=0b1, base_address=0x0)
        fabric.pulse("ext.event0")
        simulator.step(12)
        assert gpio.pad(0)
        record = pels.link(0).last_record
        assert record is not None
        assert record.sequenced_latency == 7  # the paper's sequenced-action latency

    def test_write_command(self):
        simulator, fabric, _, gpio, pels = build_pels()
        program = assemble("write 0x401 0xFF\nend")
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert gpio.output_value == 0xFF

    def test_capture_and_jump_threshold(self):
        simulator, fabric, _, gpio, pels = build_pels()
        gpio.drive_input(80)  # sample to capture from the IN register (offset 0x1008)
        program = assemble(
            """
            capture 0x402 0xFF
            jump-if DONE LE 50
            set 0x401 0x1
            DONE: end
            """
        )
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(20)
        assert gpio.pad(0)
        assert pels.link(0).execution.capture_register == 80

    def test_threshold_not_exceeded_skips_action(self):
        simulator, fabric, _, gpio, pels = build_pels()
        gpio.drive_input(10)
        program = assemble(
            """
            capture 0x402 0xFF
            jump-if DONE LE 50
            set 0x401 0x1
            DONE: end
            """
        )
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(20)
        assert not gpio.pad(0)


class TestInstantActions:
    def test_action_routed_to_peripheral_input(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(0, assemble("action 0 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert gpio.pad(0)
        record = pels.link(0).last_record
        assert record.instant_latency == 2  # the paper's instant-action latency

    def test_unrouted_action_is_counted_not_fatal(self):
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble("action 0 0x2\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert pels.unrouted_actions == 1

    def test_action_callback_route(self):
        simulator, fabric, _, _, pels = build_pels()
        hits = []
        pels.route_action_to_callback(0, 1, "probe", lambda: hits.append(1))
        pels.program_link(0, assemble("action 0 0x2\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert hits == [1]

    def test_invalid_route_coordinates_rejected(self):
        _, _, _, gpio, pels = build_pels()
        with pytest.raises(ValueError):
            pels.route_action_to_peripheral(group=99, bit=0, peripheral=gpio, port="set_pad0")
        with pytest.raises(ValueError):
            pels.route_action_to_peripheral(group=0, bit=99, peripheral=gpio, port="set_pad0")

    def test_inter_link_triggering_via_loopback(self):
        """Marker 9 of Figure 2: one link's instant action triggers another link."""
        simulator, fabric, _, gpio, pels = build_pels(n_links=2)
        loopback = pels.add_loopback_line("link0_to_link1")
        pels.route_action_to_fabric(group=1, bit=0, line_name=loopback)
        pels.program_link(0, assemble("action 1 0x1\nend"), trigger_mask=0b1)
        link1_mask = 1 << fabric.index_of(loopback)
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(1, assemble("action 0 0x1\nend"), trigger_mask=link1_mask)
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert gpio.pad(0)
        assert pels.link(1).events_serviced == 1


class TestPassiveActions:
    """Which ``action`` masks a link may replay inside a quiet run."""

    @staticmethod
    def _passive(pels, group, mask):
        return pels.link(0).execution.action_sink.passive(group, mask)

    def test_gpio_pad_inputs_are_passive(self):
        _, _, _, gpio, pels = build_pels()
        for bit, port in enumerate(("toggle_pad0", "set_pad0", "clear_pad0")):
            pels.route_action_to_peripheral(group=0, bit=bit, peripheral=gpio, port=port)
        assert all(self._passive(pels, 0, mask) for mask in range(1, 8))
        assert not self._passive(pels, 1, 0x1)  # another group, unrouted

    def test_rerouting_a_passive_bit_clears_its_passivity(self):
        _, _, _, gpio, pels = build_pels()
        loopback = pels.add_loopback_line("probe")
        for bit in range(2):
            pels.route_action_to_peripheral(group=0, bit=bit, peripheral=gpio, port="toggle_pad0")
        pels.route_action_to_fabric(group=0, bit=0, line_name=loopback)
        assert not self._passive(pels, 0, 0x1)
        assert not self._passive(pels, 0, 0x3)  # mixed: a loopback and a pad bit
        assert self._passive(pels, 0, 0x2)
        pels.route_action_to_callback(group=0, bit=1, label="probe", callback=lambda: None)
        assert not self._passive(pels, 0, 0x2)
        pels.route_action_to_peripheral(group=0, bit=1, peripheral=gpio, port="set_pad0")
        assert self._passive(pels, 0, 0x2)

    def test_zero_unrouted_and_non_gpio_masks_are_never_passive(self):
        _, _, _, gpio, pels = build_pels()
        adc = Adc("adc")
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="toggle_pad0")
        pels.route_action_to_peripheral(group=0, bit=1, peripheral=adc, port="soc")
        assert not self._passive(pels, 0, 0x0)
        assert not self._passive(pels, 0, 0x5)  # bit 2 is unrouted
        assert not self._passive(pels, 0, 0x2)  # adc.soc starts a conversion
        assert not self._passive(pels, 0, 0x3)
        assert self._passive(pels, 0, 0x1)


class TestTriggerConditions:
    def test_and_condition_needs_both_events(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(
            0,
            assemble("action 0 0x1\nend"),
            trigger_mask=0b11,
            condition=TriggerCondition.ALL_SELECTED_ACTIVE,
        )
        fabric.pulse("ext.event0")
        simulator.step(4)
        assert not gpio.pad(0)
        fabric.pulse("ext.event0")
        fabric.pulse("ext.event1")
        simulator.step(4)
        assert gpio.pad(0)

    def test_disabled_pels_ignores_events(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        pels.enabled = False
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert not gpio.pad(0)

    def test_parallel_links_service_the_same_event(self):
        simulator, fabric, _, gpio, pels = build_pels(n_links=2)
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(0, assemble("action 0 0x1\nend"), trigger_mask=0b1)
        pels.program_link(1, assemble("set 0x401 0x80\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(12)
        assert gpio.pad(0)
        assert gpio.output_value & 0x80
        assert pels.total_events_serviced() == 2


class TestConfigurationBusInterface:
    def test_global_registers(self):
        _, _, _, _, pels = build_pels(n_links=2, scm_lines=6)
        assert pels.bus_read(REG_NUM_LINKS) == 2
        assert pels.bus_read(REG_SCM_LINES) == 6
        assert pels.bus_read(REG_GLOBAL_CTRL) == 1
        pels.bus_write(REG_GLOBAL_CTRL, 0)
        assert not pels.enabled

    def test_link_registers_via_bus(self):
        _, _, _, _, pels = build_pels()
        base = LINK_WINDOW_BASE
        pels.bus_write(base + LINK_REG_MASK, 0b101)
        pels.bus_write(base + LINK_REG_CONDITION, 1)
        pels.bus_write(base + LINK_REG_BASE_ADDR, 0x2000)
        pels.bus_write(base + LINK_REG_ENABLE, 1)
        link = pels.link(0)
        assert link.trigger.mask == 0b101
        assert link.trigger.condition is TriggerCondition.ALL_SELECTED_ACTIVE
        assert link.execution.base_address == 0x2000
        assert link.trigger.enabled
        assert pels.bus_read(base + LINK_REG_MASK) == 0b101
        assert pels.bus_read(base + LINK_REG_STATUS) == link.status_word()
        assert pels.bus_read(base + LINK_REG_CAPTURE) == 0

    def test_microcode_upload_via_bus(self):
        """The CPU can write a link's SCM through the configuration window."""
        from repro.core.isa import encode_command

        _, _, _, _, pels = build_pels()
        command = Command.set(0x401, 0x1)
        encoded = encode_command(command)
        base = LINK_WINDOW_BASE + LINK_SCM_WINDOW
        pels.bus_write(base + 0, encoded & 0xFFFF_FFFF)
        pels.bus_write(base + 4, (encoded >> 32) & 0xFFFF)
        stored = pels.link(0).scm.fetch(0)
        assert stored == command
        assert pels.bus_read(base + 0) == encoded & 0xFFFF_FFFF
        assert pels.bus_read(base + 4) == (encoded >> 32) & 0xFFFF

    def test_second_link_window(self):
        _, _, _, _, pels = build_pels(n_links=2)
        offset = LINK_WINDOW_BASE + LINK_WINDOW_STRIDE + LINK_REG_MASK
        pels.bus_write(offset, 0xF0)
        assert pels.link(1).trigger.mask == 0xF0
        assert pels.link(0).trigger.mask == 0

    def test_out_of_range_window_is_ignored(self):
        _, _, _, _, pels = build_pels(n_links=1)
        pels.bus_write(LINK_WINDOW_BASE + 5 * LINK_WINDOW_STRIDE, 0xFF)  # no link 5
        assert pels.bus_read(LINK_WINDOW_BASE + 5 * LINK_WINDOW_STRIDE) == 0

    def test_window_size_covers_all_links(self):
        _, _, _, _, pels = build_pels(n_links=4)
        assert pels.window_size == LINK_WINDOW_BASE + 4 * LINK_WINDOW_STRIDE


class TestReset:
    def test_reset_clears_runtime_state(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(10)
        pels.reset()
        assert pels.total_events_serviced() == 0
        assert not pels.busy


class TestSkipReplay:
    """``Pels.skip`` replays only the ticks ``next_event`` promised."""

    def _waiting_pels(self, wait=10):
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble(f"wait {wait}\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(2)  # trigger + start, then fetch the wait
        assert pels.link(0).execution.state is ExecutionState.WAITING
        return simulator, fabric, pels

    def test_quiet_pels_skips_any_span(self):
        simulator, _, _, _, pels = build_pels()
        simulator.step(1)  # attribute construction-time SCM traffic
        assert pels.next_event() is None
        pels.skip(1_000)
        assert simulator.activity.get("pels", "idle_cycles") == 1_001

    def test_wait_window_replays_up_to_the_horizon(self):
        """The countdown runs into ``end``, so the horizon is open: a skip
        replays the countdown and the finish, then idles."""
        simulator, _, pels = self._waiting_pels(wait=10)
        link = pels.link(0)
        execution = link.execution
        # The countdown and the fetch of ``end`` form one quiet run that
        # finishes the sequence, so it sets no bound.
        assert execution.quiet_run() == (11, True)
        assert pels.next_event() is None
        activity = simulator.activity
        busy, link_busy, idle = (
            activity.get("pels", name) for name in ("busy_cycles", "link_busy_cycles", "idle_cycles")
        )
        executed = execution.busy_cycles
        first = simulator.current_cycle
        pels.skip(15)
        assert execution.state is ExecutionState.IDLE
        assert link.last_record.completion_cycle == first + 10
        assert execution.busy_cycles == executed + 11  # the ``end`` tick counts
        # The ``end`` tick leaves the link idle, so PELS records it idle.
        assert activity.get("pels", "busy_cycles") == busy + 10
        assert activity.get("pels", "link_busy_cycles") == link_busy + 10
        assert activity.get("pels", "idle_cycles") == idle + 5
        assert not pels.busy
        assert pels.next_event() is None

    def test_wait_window_ends_in_a_wake_inside_run_until(self):
        """While ``run_until`` polls, the fetch of ``end`` is the wake."""
        simulator, _, pels = self._waiting_pels(wait=10)

        def probe():
            horizons.append(pels.next_event())
            with pytest.raises(SimulationError):
                pels.skip(11)
            return True

        horizons = []
        simulator.run_until(probe)
        assert horizons == [11]
        assert pels.next_event() is None

    def test_busy_states_refuse_to_skip(self):
        """Every state of a sequenced ``set`` is a wake; the fetch of ``end``
        after it is not."""
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        seen = set()
        fetches_of_end = 0
        for _ in range(12):
            simulator.step(1)
            execution = pels.link(0).execution
            state = execution.state
            if state is ExecutionState.IDLE:
                continue
            seen.add(state)
            if state is ExecutionState.FETCH and execution.pc == 1:
                fetches_of_end += 1
                assert pels.next_event() is None
            else:
                with pytest.raises(SimulationError):
                    pels.skip(1)
        assert fetches_of_end == 1
        assert {
            ExecutionState.FETCH,
            ExecutionState.ISSUE_READ,
            ExecutionState.READ_WAIT,
            ExecutionState.ISSUE_WRITE,
            ExecutionState.WRITE_WAIT,
        } <= seen

    def test_the_fetch_of_end_is_a_wake_inside_run_until(self):
        simulator, fabric, _, _, pels = build_pels()
        link = pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")

        def probe():
            execution = link.execution
            if execution.state is ExecutionState.FETCH and execution.pc == 1:
                horizons.append(pels.next_event())
            return link.last_record is not None

        horizons = []
        simulator.run_until(probe, max_cycles=50)
        assert horizons == [1]

    def test_queued_trigger_refuses_to_skip(self):
        simulator, fabric, pels = self._waiting_pels()
        fabric.pulse("ext.event0")
        simulator.step(1)
        assert pels.link(0).trigger.fifo.level == 1
        with pytest.raises(SimulationError):
            pels.skip(1)

    def test_active_fabric_refuses_to_skip(self):
        simulator, fabric, _, _, pels = build_pels()
        simulator.step(1)
        fabric.pulse("ext.event1")
        with pytest.raises(SimulationError):
            pels.skip(1)

    def test_pending_loopback_refuses_to_skip(self):
        simulator, _, _, _, pels = build_pels()
        loopback = pels.add_loopback_line("wake")
        simulator.step(1)
        pels._pending_loopback.append(loopback)
        with pytest.raises(SimulationError):
            pels.skip(1)


class TestScmTraffic:
    def test_clearing_a_link_scm_does_not_wedge_pels(self):
        """``ScmMemory.clear`` resets the memory's own counts, never the PELS total."""
        soc = build_soc(SocConfig())
        pels = soc.pels
        program = assemble("wait 5\nend")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        soc.timer.regs.reg("COMPARE").hw_write(100)
        pels.program_link(0, program, trigger_mask=timer_bit)
        soc.timer.start()
        soc.run(1_000)
        soc.timer.stop()
        soc.run(50)
        scm = pels.link(0).scm
        scm.clear()
        pels.program_link(0, program, trigger_mask=timer_bit)
        stats = soc.simulator.kernel_stats
        dense_before = stats["dense_ticks"]
        soc.run(10_000)
        assert not pels.busy
        assert pels.next_event() is None
        assert stats["dense_ticks"] - dense_before <= 2
        # Every fetch after the clear reaches the activity counters.
        reads_before = soc.activity.get("pels", "scm_reads")
        soc.timer.start()
        soc.run(1_000)
        fetched = scm.read_count
        assert fetched > 0
        assert soc.activity.get("pels", "scm_reads") - reads_before == fetched
