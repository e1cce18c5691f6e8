"""Unit tests for the execution-unit FSM, driven with a manually-controlled bus."""

import pytest

from repro.bus.transaction import TransferKind
from repro.core.execution import ExecutionState, ExecutionUnit
from repro.core.fifo import TriggerEntry
from repro.core.isa import Command, JumpCondition
from repro.core.scm import ScmMemory


class ManualBus:
    """Records submitted requests; the test completes them explicitly."""

    def __init__(self):
        self.requests = []

    def submit(self, request):
        self.requests.append(request)
        return request

    def complete_last(self, rdata=0, cycle=0):
        self.requests[-1].complete(rdata, cycle)


def make_unit(program, base_address=0x1000, with_bus=True, action_sink=None):
    scm = ScmMemory(max(len(program), 4))
    scm.load_program(program)
    bus = ManualBus() if with_bus else None
    unit = ExecutionUnit(
        name="link0",
        scm=scm,
        bus_submit=bus.submit if bus else None,
        action_sink=action_sink,
        base_address=base_address,
    )
    return unit, bus


def start(unit, cycle=0):
    unit.start(TriggerEntry(cycle=cycle, events_snapshot=0b1))


class TestControlFlow:
    def test_idle_until_started(self):
        unit, _ = make_unit([Command.end()])
        assert unit.idle
        unit.tick(0)
        assert unit.idle

    def test_start_requires_idle(self):
        unit, _ = make_unit([Command.wait(10), Command.end()])
        start(unit)
        unit.tick(1)
        with pytest.raises(RuntimeError):
            start(unit)

    def test_end_returns_to_idle_and_counts_sequence(self):
        unit, _ = make_unit([Command.end()])
        start(unit, cycle=0)
        unit.tick(1)
        assert unit.idle
        assert unit.sequences_completed == 1
        assert unit.last_completion_cycle == 1

    def test_falls_off_program_end_gracefully(self):
        unit, _ = make_unit([Command.action(0, 1)] * 4)
        start(unit)
        for cycle in range(1, 8):
            unit.tick(cycle)
        assert unit.idle
        assert unit.instant_actions == 4

    def test_wait_stalls_for_programmed_cycles(self):
        unit, _ = make_unit([Command.wait(3), Command.end()])
        start(unit, cycle=0)
        unit.tick(1)  # fetch wait
        assert unit.state is ExecutionState.WAITING
        unit.tick(2)
        unit.tick(3)
        unit.tick(4)
        assert unit.state is ExecutionState.FETCH
        unit.tick(5)  # fetch end
        assert unit.idle

    def test_zero_wait_is_a_nop(self):
        unit, _ = make_unit([Command.wait(0), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        assert unit.idle

    def test_loop_repeats_body(self):
        actions = []
        unit, _ = make_unit(
            [Command.action(0, 1), Command.loop(0, 2), Command.end()],
            action_sink=lambda group, mask, toggle, cycle: actions.append(cycle),
        )
        start(unit)
        for cycle in range(1, 12):
            unit.tick(cycle)
        assert unit.idle
        assert len(actions) == 3  # initial pass + 2 loop iterations

    def test_jump_if_taken_and_not_taken(self):
        # Program: jump to END if capture > 50, otherwise fall through to an action.
        program = [
            Command.jump_if(2, JumpCondition.GT, 50),
            Command.action(0, 1),
            Command.end(),
        ]
        fired = []
        unit, _ = make_unit(program, action_sink=lambda *args: fired.append(args))
        unit.capture_register = 80
        start(unit)
        for cycle in range(1, 5):
            unit.tick(cycle)
        assert unit.idle and not fired

        unit2, _ = make_unit(program, action_sink=lambda *args: fired.append(args))
        unit2.capture_register = 10
        start(unit2)
        for cycle in range(1, 6):
            unit2.tick(cycle)
        assert unit2.idle and len(fired) == 1


class TestInstantActions:
    def test_action_executes_in_fetch_cycle(self):
        """Instant actions fire one cycle after the trigger (2-cycle total latency)."""
        seen = []
        unit, _ = make_unit(
            [Command.action(3, 0b101, toggle=True), Command.end()],
            action_sink=lambda group, mask, toggle, cycle: seen.append((group, mask, toggle, cycle)),
        )
        start(unit, cycle=10)
        unit.tick(11)
        assert seen == [(3, 0b101, True, 11)]
        assert unit.first_action_cycle == 11

    def test_instant_action_needs_no_bus(self):
        unit, _ = make_unit([Command.action(0, 1), Command.end()], with_bus=False)
        start(unit)
        unit.tick(1)
        unit.tick(2)
        assert unit.idle


class TestSequencedActions:
    def test_write_command_issues_single_bus_write(self):
        unit, bus = make_unit([Command.write(0x4, 0xAB), Command.end()], base_address=0x1000)
        start(unit, cycle=0)
        unit.tick(1)  # fetch
        unit.tick(2)  # issue write
        assert len(bus.requests) == 1
        request = bus.requests[0]
        assert request.kind is TransferKind.WRITE
        assert request.address == 0x1000 + 0x10
        assert request.wdata == 0xAB

    def test_write_waits_for_completion(self):
        unit, bus = make_unit([Command.write(1, 1), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        unit.tick(3)
        assert unit.state is ExecutionState.WRITE_WAIT
        bus.complete_last(cycle=3)
        unit.tick(4)
        assert unit.state is ExecutionState.FETCH
        assert unit.last_bus_write_cycle == 3

    def test_set_is_read_modify_write(self):
        unit, bus = make_unit([Command.set(0, 0x0F), Command.end()])
        start(unit)
        unit.tick(1)  # fetch
        unit.tick(2)  # issue read
        assert bus.requests[0].kind is TransferKind.READ
        bus.complete_last(rdata=0xF0, cycle=3)
        unit.tick(4)  # observe + modify
        unit.tick(5)  # issue write
        assert bus.requests[1].kind is TransferKind.WRITE
        assert bus.requests[1].wdata == 0xFF

    def test_clear_and_toggle_datapath(self):
        unit, bus = make_unit([Command.clear(0, 0x0F), Command.toggle(0, 0xFF), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        bus.complete_last(rdata=0xFF, cycle=2)
        unit.tick(3)
        unit.tick(4)
        assert bus.requests[1].wdata == 0xF0
        bus.complete_last(cycle=4)
        unit.tick(5)   # back to fetch
        unit.tick(6)   # fetch toggle
        unit.tick(7)   # issue read
        bus.complete_last(rdata=0x0F, cycle=7)
        unit.tick(8)
        unit.tick(9)
        assert bus.requests[3].wdata == 0xF0

    def test_capture_stores_masked_value(self):
        unit, bus = make_unit([Command.capture(2, 0x0FF), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        bus.complete_last(rdata=0x1234, cycle=2)
        unit.tick(3)
        assert unit.capture_register == 0x34

    def test_stall_cycles_counted_while_waiting(self):
        unit, bus = make_unit([Command.write(0, 1), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        unit.tick(3)
        unit.tick(4)
        assert unit.stall_cycles >= 2

    def test_sequenced_action_without_bus_raises(self):
        unit, _ = make_unit([Command.write(0, 1), Command.end()], with_bus=False)
        start(unit)
        unit.tick(1)
        with pytest.raises(RuntimeError):
            unit.tick(2)

    def test_base_address_reprogramming(self):
        unit, bus = make_unit([Command.write(1, 1), Command.end()], base_address=0)
        unit.set_base_address(0x2000)
        start(unit)
        unit.tick(1)
        unit.tick(2)
        assert bus.requests[0].address == 0x2004
        with pytest.raises(ValueError):
            unit.set_base_address(3)


class TestStatistics:
    def test_command_counts(self):
        unit, bus = make_unit([Command.write(0, 1), Command.action(0, 1), Command.end()])
        start(unit)
        unit.tick(1)
        unit.tick(2)
        bus.complete_last(cycle=2)
        unit.tick(3)
        unit.tick(4)  # fetch + execute action
        unit.tick(5)  # fetch end
        from repro.core.isa import Opcode

        assert unit.commands_executed[Opcode.WRITE] == 1
        assert unit.commands_executed[Opcode.ACTION] == 1
        assert unit.commands_executed[Opcode.END] == 1
        assert unit.bus_writes == 1

    def test_reset_clears_state_and_statistics(self):
        unit, bus = make_unit([Command.write(0, 1), Command.end()])
        start(unit)
        unit.tick(1)
        unit.reset()
        assert unit.idle
        assert unit.busy_cycles == 0
        assert unit.pc == 0


class TestStateDispatch:
    def test_states_hash_by_identity_in_c(self):
        """``tick`` looks its handler up by state on every busy cycle;
        ``Enum.__hash__`` is Python code, identity hashing is not."""
        assert ExecutionState.__hash__ is object.__hash__
        assert len({state: state.value for state in ExecutionState}) == len(ExecutionState)
