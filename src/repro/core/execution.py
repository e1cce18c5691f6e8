"""The per-link execution unit.

The execution unit is a small FSM (Figure 2 of the paper) that walks the
link's microcode one command per SCM line:

* *instant* commands (``action``) and control-flow commands (``jump_if``,
  ``loop``, ``wait``, ``end``) execute in the fetch cycle;
* *sequenced* commands (``write``, ``set``, ``clear``, ``toggle``,
  ``capture``) issue transfers on the peripheral interconnect and stall until
  the bus answers, performing the read-modify-write data path of markers
  5–8 in Figure 2.

Cycle budget for a read-modify-write sequenced action (matching the 7 cycles
reported in Section IV-B): trigger (1) + fetch (1) + bus read (2) + modify
(1) + bus write-back (2).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Tuple

from repro.bus.transaction import BusRequest, TransferKind, WORD_MASK
from repro.core.fifo import TriggerEntry
from repro.core.isa import Command, Opcode
from repro.core.scm import QUIET_RUN_TABLE_LIMIT, ScmMemory

# An action sink receives (group, mask, toggle, cycle) when an instant action fires.
# It may also offer ``passive(group, mask) -> bool`` (see ExecutionUnit.quiet_run);
# a sink without it has no passive actions.
ActionSink = Callable[[int, int, bool, int], None]
# A bus submit function queues a request on the peripheral interconnect.
BusSubmit = Callable[[BusRequest], BusRequest]

#: Most commands :meth:`ExecutionUnit._walk_quiet_run` walks ahead.  A shorter
#: quiet run is always a valid horizon; the cap bounds the walk's cost and
#: ends a ``jump_if`` loop that never leaves PELS.
QUIET_WALK_LIMIT = 64
#: Quiet-run table entry under ``(pc, loop counter)`` for a run that crosses
#: a ``jump_if``: its run is entered under ``(pc, loop counter, capture)``.
_READS_CAPTURE = -1
#: :meth:`ExecutionUnit.quiet_run` of a unit neither counting down nor fetching.
_NO_RUN = (0, False)


class ExecutionState(enum.Enum):
    """FSM states of the execution unit."""

    IDLE = "idle"
    FETCH = "fetch"
    ISSUE_READ = "issue_read"
    READ_WAIT = "read_wait"
    ISSUE_WRITE = "issue_write"
    WRITE_WAIT = "write_wait"
    WAITING = "waiting"

    # Members are singletons, so identity hashing is exact, and it runs in C:
    # ``Enum.__hash__`` is Python code, paid on every busy-link tick's
    # handler lookup.
    __hash__ = object.__hash__


class ExecutionUnit:
    """Microcode interpreter for one link."""

    def __init__(
        self,
        name: str,
        scm: ScmMemory,
        bus_submit: Optional[BusSubmit] = None,
        action_sink: Optional[ActionSink] = None,
        base_address: int = 0,
    ) -> None:
        self.name = name
        self.scm = scm
        self.bus_submit = bus_submit
        self.action_sink = action_sink
        self.base_address = base_address
        self.state = ExecutionState.IDLE
        self.pc = 0
        self.capture_register = 0
        self._current: Optional[Command] = None
        self._pending_request: Optional[BusRequest] = None
        self._modified_value = 0
        self._wait_remaining = 0
        self._loop_remaining: Optional[int] = None
        self._active_trigger: Optional[TriggerEntry] = None
        # Statistics and timestamps used by the latency/power analyses.
        self.commands_executed: Dict[Opcode, int] = {opcode: 0 for opcode in Opcode}
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.bus_reads = 0
        self.bus_writes = 0
        self.instant_actions = 0
        self.sequences_completed = 0
        self.bus_errors = 0
        self.sequences_aborted = 0
        self.last_trigger_cycle: Optional[int] = None
        self.last_completion_cycle: Optional[int] = None
        self.last_bus_write_cycle: Optional[int] = None
        self.first_action_cycle: Optional[int] = None

    # ------------------------------------------------------------------ control

    @property
    def idle(self) -> bool:
        """Whether the unit can accept a new trigger."""
        return self.state is ExecutionState.IDLE

    def start(self, trigger: TriggerEntry) -> None:
        """Begin servicing a trigger; the first fetch happens next cycle."""
        if not self.idle:
            raise RuntimeError(f"{self.name}: cannot start while {self.state.value}")
        self._active_trigger = trigger
        self.pc = 0
        self.state = ExecutionState.FETCH
        self.last_trigger_cycle = trigger.cycle
        self.first_action_cycle = None
        self.last_bus_write_cycle = None

    def set_base_address(self, base_address: int) -> None:
        """Reprogram the link base address used by sequenced actions."""
        if base_address < 0 or base_address % 4 != 0:
            raise ValueError("base address must be non-negative and word aligned")
        self.base_address = base_address

    # ---------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        """Advance the FSM by one clock cycle."""
        if self.state is ExecutionState.IDLE:
            return
        self.busy_cycles += 1
        _STATE_HANDLERS[self.state](self, cycle)

    # ------------------------------------------------------------- quiet runs

    def quiet_run(self) -> Tuple[int, bool]:
        """Leading ticks from now that touch nothing outside PELS, and whether they finish.

        Those are the rest of a ``wait`` countdown (including the tick that
        moves to FETCH ``pc + 1``), then the quiet run the program walks from
        there (:meth:`_walk_quiet_run`).  ``finishes`` says that the run's
        last tick is the fetch of ``end`` or of a line past the SCM, after
        which the unit is idle.  Returns ``(0, False)`` unless the unit is
        counting down or fetching.

        The run is looked up in the SCM's :attr:`~ScmMemory.quiet_runs`
        table, keyed on what the walk reads: the start ``pc`` and the loop
        counter, plus the capture register when the run crosses a
        ``jump_if`` (the entry under the short key then says so).  A miss
        walks the program once and fills the table.
        """
        state = self.state
        if state is ExecutionState.WAITING:
            wait = self._wait_remaining
            pc = self.pc + 1
        elif state is ExecutionState.FETCH:
            wait = 0
            pc = self.pc
        else:
            return _NO_RUN
        runs = self.scm.quiet_runs
        run = runs.get((pc, self._loop_remaining))
        if run == _READS_CAPTURE:
            run = runs.get((pc, self._loop_remaining, self.capture_register))
        if run is None:
            run = self._learn_quiet_run(pc)
        if wait:
            return wait + run[0], run[1]
        return run

    def _learn_quiet_run(self, pc: int) -> Tuple[int, bool]:
        """Walk the quiet run from ``pc`` and enter it in the SCM's table."""
        loop_remaining = self._loop_remaining
        ticks, finishes, reads_capture = self._walk_quiet_run(pc, loop_remaining)
        run = (ticks, finishes)
        runs = self.scm.quiet_runs
        if len(runs) >= QUIET_RUN_TABLE_LIMIT:
            runs.clear()
        if reads_capture:
            runs[(pc, loop_remaining)] = _READS_CAPTURE
            runs[(pc, loop_remaining, self.capture_register)] = run
        else:
            runs[(pc, loop_remaining)] = run
        return run

    def _walk_quiet_run(self, pc: int, loop_remaining: Optional[int]) -> Tuple[int, bool, bool]:
        """Ticks of the quiet run whose first fetch is line ``pc``, uncached.

        The run holds the fetches of ``wait d`` (``1 + d`` ticks), ``loop``,
        ``jump_if`` and every ``action`` the action sink calls ``passive``
        (one that only reaches passive peripheral inputs) along the
        program's path, and ends with the fetch of ``end`` or of a line past
        the SCM when the path gets there.  The walk stops before the fetch
        of any other command, and after :data:`QUIET_WALK_LIMIT` commands.
        It reads the SCM with :meth:`ScmMemory.peek`, so it counts no SCM
        reads, and steps the loop counter on a copy; the capture register
        cannot change inside the run (only ``capture``, where the walk
        stops, writes it).  Returns the ticks, whether the run finishes the
        sequence, and whether a ``jump_if`` read the capture register.
        """
        scm = self.scm
        lines = scm.lines
        ticks = 0
        reads_capture = False
        for _ in range(QUIET_WALK_LIMIT):
            if pc >= lines:
                return ticks + 1, True, reads_capture
            command = scm.peek(pc)
            opcode = command.opcode
            if opcode is Opcode.WAIT:
                ticks += 1 + command.data
                pc += 1
            elif opcode is Opcode.LOOP:
                ticks += 1
                # Mirrors _execute_loop on a local copy of the counter.
                if loop_remaining is None:
                    loop_remaining = command.data
                if loop_remaining > 0:
                    loop_remaining -= 1
                    pc = command.jump_target
                else:
                    loop_remaining = None
                    pc += 1
            elif opcode is Opcode.JUMP_IF:
                ticks += 1
                reads_capture = True
                taken = command.jump_condition.evaluate(self.capture_register, command.data)
                pc = command.jump_target if taken else pc + 1
            elif opcode is Opcode.ACTION:
                passive = getattr(self.action_sink, "passive", None)
                if passive is None or not passive(command.action_group, command.data):
                    break
                ticks += 1
                pc += 1
            elif opcode is Opcode.END:
                return ticks + 1, True, reads_capture
            else:
                break
        return ticks, False, reads_capture

    def skip_quiet(self, cycles: int, cycle: int) -> int:
        """Replay the first ``cycles`` ticks of :meth:`quiet_run`, the first at ``cycle``.

        Countdowns go in bulk; each fetch runs the dense tick's own handler
        with its cycle number, so state and statistics match ``cycles``
        calls of :meth:`tick`, and a passive action reaches the sink with
        its own cycle.  A run that finishes stops at its last fetch; the
        unit then stays idle.  Returns how many of the ticks ended with the
        unit still busy: ``cycles``, or the index of the finishing tick.
        """
        if self.state is ExecutionState.IDLE:
            return 0
        start = cycle
        end = cycle + cycles
        while cycle < end:
            if self.state is ExecutionState.WAITING:
                step = min(self._wait_remaining, end - cycle)
                self._wait_remaining -= step
                cycle += step
                if self._wait_remaining <= 0:
                    self.pc += 1
                    self.state = ExecutionState.FETCH
            else:
                self._tick_fetch(cycle)
                cycle += 1
                if self.state is ExecutionState.IDLE:
                    self.busy_cycles += cycle - start
                    return cycle - start - 1
        self.busy_cycles += cycles
        return cycles

    # ------------------------------------------------------------------- states

    def _tick_fetch(self, cycle: int) -> None:
        if self.pc >= self.scm.lines:
            self._finish(cycle)
            return
        command = self.scm.fetch(self.pc)
        self._current = command
        opcode = command.opcode
        if opcode is Opcode.END:
            self._count(opcode)
            self._finish(cycle)
        elif opcode is Opcode.ACTION:
            self._count(opcode)
            self._execute_action(command, cycle)
            self.pc += 1
        elif opcode is Opcode.JUMP_IF:
            self._count(opcode)
            taken = command.jump_condition.evaluate(self.capture_register, command.data)
            self.pc = command.jump_target if taken else self.pc + 1
        elif opcode is Opcode.LOOP:
            self._count(opcode)
            self._execute_loop(command)
        elif opcode is Opcode.WAIT:
            self._count(opcode)
            self._wait_remaining = command.data
            self.state = ExecutionState.WAITING if command.data > 0 else ExecutionState.FETCH
            if command.data == 0:
                self.pc += 1
        elif opcode is Opcode.WRITE:
            self.state = ExecutionState.ISSUE_WRITE
            self._modified_value = command.data
        elif opcode in (Opcode.SET, Opcode.CLEAR, Opcode.TOGGLE, Opcode.CAPTURE):
            self.state = ExecutionState.ISSUE_READ
        else:  # pragma: no cover - all opcodes handled above
            raise RuntimeError(f"{self.name}: unhandled opcode {opcode!r}")

    def _tick_issue_read(self, cycle: int) -> None:
        command = self._require_current()
        request = BusRequest(
            master=self.name,
            kind=TransferKind.READ,
            address=self.base_address + command.byte_offset,
        )
        self._submit(request)
        self.bus_reads += 1
        self.state = ExecutionState.READ_WAIT

    def _tick_read_wait(self, cycle: int) -> None:
        request = self._pending_request
        if request is None or not request.done:
            self.stall_cycles += 1
            return
        if request.error:
            self._abort_on_bus_error(cycle)
            return
        command = self._require_current()
        value = request.rdata
        self._pending_request = None
        if command.opcode is Opcode.CAPTURE:
            self.capture_register = value & command.data & WORD_MASK
            self._count(Opcode.CAPTURE)
            self.pc += 1
            self.state = ExecutionState.FETCH
            return
        # Read-modify-write commands: compute the writeback value (marker 7).
        if command.opcode is Opcode.SET:
            self._modified_value = (value | command.data) & WORD_MASK
        elif command.opcode is Opcode.CLEAR:
            self._modified_value = value & ~command.data & WORD_MASK
        else:  # TOGGLE
            self._modified_value = (value ^ command.data) & WORD_MASK
        self.state = ExecutionState.ISSUE_WRITE

    def _tick_issue_write(self, cycle: int) -> None:
        command = self._require_current()
        request = BusRequest(
            master=self.name,
            kind=TransferKind.WRITE,
            address=self.base_address + command.byte_offset,
            wdata=self._modified_value,
        )
        self._submit(request)
        self.bus_writes += 1
        self.state = ExecutionState.WRITE_WAIT

    def _tick_write_wait(self, cycle: int) -> None:
        request = self._pending_request
        if request is None or not request.done:
            self.stall_cycles += 1
            return
        if request.error:
            self._abort_on_bus_error(cycle)
            return
        command = self._require_current()
        self._pending_request = None
        if request.response is not None:
            self.last_bus_write_cycle = request.response.completed_cycle
        self._count(command.opcode)
        self.pc += 1
        self.state = ExecutionState.FETCH

    def _tick_waiting(self, cycle: int) -> None:
        self._wait_remaining -= 1
        if self._wait_remaining <= 0:
            self.pc += 1
            self.state = ExecutionState.FETCH

    # ------------------------------------------------------------------ helpers

    def _execute_action(self, command: Command, cycle: int) -> None:
        self.instant_actions += 1
        if self.first_action_cycle is None:
            self.first_action_cycle = cycle
        if self.action_sink is not None:
            self.action_sink(command.action_group, command.data, command.action_is_toggle, cycle)

    def _execute_loop(self, command: Command) -> None:
        if self._loop_remaining is None:
            self._loop_remaining = command.data
        if self._loop_remaining > 0:
            self._loop_remaining -= 1
            self.pc = command.jump_target
        else:
            self._loop_remaining = None
            self.pc += 1

    def _abort_on_bus_error(self, cycle: int) -> None:
        """Terminate the current sequence after an APB error response.

        A mis-programmed offset (an address outside any slave window) must
        not wedge the link: the sequence is abandoned, the error is counted,
        and the link returns to idle ready for the next trigger.
        """
        self.bus_errors += 1
        self.sequences_aborted += 1
        self._pending_request = None
        self.last_completion_cycle = cycle
        self._active_trigger = None
        self._current = None
        self._loop_remaining = None
        self.state = ExecutionState.IDLE

    def _submit(self, request: BusRequest) -> None:
        if self.bus_submit is None:
            raise RuntimeError(
                f"{self.name}: sequenced action needs a peripheral bus but none is connected"
            )
        self._pending_request = self.bus_submit(request)

    def _finish(self, cycle: int) -> None:
        self.sequences_completed += 1
        self.last_completion_cycle = cycle
        self._active_trigger = None
        self._current = None
        self._loop_remaining = None
        self.state = ExecutionState.IDLE

    def _require_current(self) -> Command:
        if self._current is None:
            raise RuntimeError(f"{self.name}: no command in flight")
        return self._current

    def _count(self, opcode: Opcode) -> None:
        self.commands_executed[opcode] += 1

    def reset(self) -> None:
        """Return to the post-reset state (statistics are cleared)."""
        self.state = ExecutionState.IDLE
        self.pc = 0
        self.capture_register = 0
        self._current = None
        self._pending_request = None
        self._modified_value = 0
        self._wait_remaining = 0
        self._loop_remaining = None
        self._active_trigger = None
        self.commands_executed = {opcode: 0 for opcode in Opcode}
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.bus_reads = 0
        self.bus_writes = 0
        self.instant_actions = 0
        self.sequences_completed = 0
        self.bus_errors = 0
        self.sequences_aborted = 0
        self.last_trigger_cycle = None
        self.last_completion_cycle = None
        self.last_bus_write_cycle = None
        self.first_action_cycle = None


# One dispatch table for :meth:`ExecutionUnit.tick`, built once at import.
_STATE_HANDLERS: Dict[ExecutionState, Callable[[ExecutionUnit, int], None]] = {
    ExecutionState.FETCH: ExecutionUnit._tick_fetch,
    ExecutionState.ISSUE_READ: ExecutionUnit._tick_issue_read,
    ExecutionState.READ_WAIT: ExecutionUnit._tick_read_wait,
    ExecutionState.ISSUE_WRITE: ExecutionUnit._tick_issue_write,
    ExecutionState.WRITE_WAIT: ExecutionUnit._tick_write_wait,
    ExecutionState.WAITING: ExecutionUnit._tick_waiting,
}
