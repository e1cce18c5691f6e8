"""Property-based tests on system-level invariants: assembler, execution, area and power models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.model import PelsAreaModel
from repro.bus.apb import ApbBus
from repro.core.assembler import Assembler
from repro.core.config import PelsConfig
from repro.core.isa import Opcode
from repro.core.pels import Pels
from repro.core.scm import ScmMemory
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.power.model import PowerModel
from repro.sim.simulator import Simulator

WORD = st.integers(min_value=0, max_value=0xFFFF_FFFF)


class TestAssemblerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "set", "clear", "toggle", "capture"]),
                st.integers(min_value=0, max_value=0xFFF),
                WORD,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_assembling_sequenced_commands_preserves_operands(self, statements):
        source = "\n".join(f"{mnemonic} {offset} {value}" for mnemonic, offset, value in statements)
        program = Assembler().assemble(source + "\nend")
        assert len(program) == len(statements) + 1
        for command, (mnemonic, offset, value) in zip(program, statements):
            assert command.opcode.name.lower() == mnemonic
            assert command.word_offset == offset
            assert command.data == value

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=0xFFF), WORD)
    def test_scm_roundtrip_of_assembled_program(self, lines, offset, value):
        program = Assembler().assemble(f"set {offset} {value}\nend")
        scm = ScmMemory(max(lines, len(program)))
        scm.load_program(list(program))
        assert scm.fetch(0) == program[0]


class TestExecutionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFF),
        st.integers(min_value=0, max_value=0xFF),
        st.sampled_from(["set", "clear", "toggle"]),
    )
    def test_rmw_commands_compute_correct_result(self, initial, mask, mnemonic):
        """Whatever the initial register value, the RMW datapath matches the bitwise semantics."""
        simulator = Simulator()
        fabric = EventFabric()
        fabric.add_line("ext.event")
        bus = ApbBus("apb")
        gpio = Gpio("gpio")
        gpio.connect_events(fabric)
        bus.attach_slave(0x0, 0x1000, gpio)
        pels = Pels(PelsConfig(n_links=1, scm_lines=4), fabric, peripheral_bus=bus)
        simulator.add_component(gpio)
        simulator.add_component(pels)
        simulator.add_component(bus)

        gpio.regs.reg("OUT").hw_write(initial)
        out_word = gpio.regs.offset_of("OUT") // 4
        program = Assembler().assemble(f"{mnemonic} {out_word} {mask}\nend")
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event")
        simulator.step(15)

        expected = {
            "set": initial | mask,
            "clear": initial & ~mask & 0xFFFF_FFFF,
            "toggle": initial ^ mask,
        }[mnemonic]
        assert gpio.output_value == expected
        assert pels.link(0).last_record.sequenced_latency == 7


class TestAreaModelProperties:
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    def test_area_is_positive_and_monotonic_in_links(self, n_links, scm_lines):
        model = PelsAreaModel()
        smaller = model.estimate(PelsConfig(n_links=n_links, scm_lines=scm_lines))
        assert smaller.total_kge > 0
        if n_links < 16:
            larger = model.estimate(PelsConfig(n_links=n_links + 1, scm_lines=scm_lines))
            assert larger.total_kge > smaller.total_kge

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=15))
    def test_area_is_monotonic_in_scm_lines(self, n_links, scm_lines):
        model = PelsAreaModel()
        smaller = model.estimate(PelsConfig(n_links=n_links, scm_lines=scm_lines))
        larger = model.estimate(PelsConfig(n_links=n_links, scm_lines=scm_lines + 1))
        assert larger.total_kge > smaller.total_kge
        assert larger.component("Memory") > smaller.component("Memory")
        assert larger.component("Trigger") == smaller.component("Trigger")


class TestPowerModelProperties:
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["ibex", "sram", "apb", "pels", "gpio"]),
                      st.sampled_from(["active_cycles", "reads", "writes", "grants", "link_busy_cycles", "bus_reads"])),
            st.integers(min_value=0, max_value=10_000),
            max_size=10,
        ),
        st.integers(min_value=1, max_value=100_000),
    )
    def test_power_is_non_negative_and_monotonic_in_activity(self, activity, window):
        model = PowerModel()
        breakdown = model.estimate(activity, window_cycles=window, frequency_hz=55e6)
        assert all(value >= 0 for value in breakdown.components_uw.values())
        doubled = {key: 2 * value for key, value in activity.items()}
        assert model.estimate(doubled, window, 55e6).total_uw >= breakdown.total_uw - 1e-9

    @given(st.integers(min_value=1, max_value=10_000))
    def test_leakage_independent_of_window(self, window):
        model = PowerModel()
        breakdown = model.estimate({}, window_cycles=window, frequency_hz=55e6)
        assert breakdown.component("Leakage") == model.estimate({}, 1, 55e6).component("Leakage")


class TestScmProperties:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 48) - 1), min_size=1, max_size=8))
    def test_scm_stores_arbitrary_valid_encodings(self, lines):
        scm = ScmMemory(len(lines))
        stored = 0
        for index, encoded in enumerate(lines):
            opcode = (encoded >> 44) & 0xF
            if opcode > int(max(Opcode)):
                continue
            scm.write_line(index, encoded)
            assert scm.read_line(index) == encoded
            stored += 1
        assert scm.write_count == stored
