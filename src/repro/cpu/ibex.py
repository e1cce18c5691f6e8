"""Ibex-class core model.

PULPissimo's smallest supported core is the 2-stage, in-order Ibex, which the
paper uses for the interrupt-driven baseline.  The model captures the pieces
of Ibex behaviour the evaluation depends on:

* **Sleep (WFI)**: between linking events the core sits in wait-for-interrupt;
  the clock still toggles (the paper's idle scenario excludes standby
  leakage-saving techniques), which the power model accounts for as idle
  clocking activity.
* **Interrupt entry / exit**: a fixed pipeline-flush + vector-fetch cost on
  entry and an ``mret`` cost on exit.
* **Handler execution**: one instruction per issue cycle, with loads/stores
  stalling on the SoC interconnect and peripheral bridge.
* **Instruction-fetch traffic**: every executed instruction counts one fetch
  from the SRAM banks, the activity that makes the memory system draw 3.7–4.3×
  more power in the baseline than with PELS (Section IV-B).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.bus.interconnect import SystemInterconnect
from repro.bus.transaction import BusRequest, TransferKind
from repro.cpu.instructions import (
    Alu,
    Branch,
    Instruction,
    Li,
    Load,
    Nop,
    Store,
    WORD_MASK,
)
from repro.cpu.irq import InterruptController
from repro.sim.component import Component

# Ibex interrupt timing (cycles).  Entry covers the pipeline flush, the
# vectored dispatch, and the first handler-instruction fetch from the L2
# memory; exit covers ``mret``.
DEFAULT_INTERRUPT_ENTRY_CYCLES = 5
DEFAULT_MRET_CYCLES = 2
TAKEN_BRANCH_PENALTY = 1


class CpuState(enum.Enum):
    """Top-level state of the core."""

    SLEEPING = "sleeping"
    INTERRUPT_ENTRY = "interrupt_entry"
    EXECUTING = "executing"
    MRET = "mret"
    STALLED = "stalled"


class IbexCore(Component):
    """Timing-level model of the Ibex core servicing linking interrupts.

    Wake-cacheable: a sleeping core wakes only when its interrupt
    controller latches a new interrupt or an ISR is registered, and both
    notify it; while it sleeps its WFI cycles are owed, not ticked.
    """

    wake_cacheable = True

    def __init__(
        self,
        name: str = "ibex",
        interconnect: Optional[SystemInterconnect] = None,
        irq_controller: Optional[InterruptController] = None,
        interrupt_entry_cycles: int = DEFAULT_INTERRUPT_ENTRY_CYCLES,
        mret_cycles: int = DEFAULT_MRET_CYCLES,
        instruction_memory: Optional[object] = None,
    ) -> None:
        super().__init__(name)
        self.interconnect = interconnect
        self.irq_controller = irq_controller
        if irq_controller is not None:
            irq_controller.add_core(self)
        self.interrupt_entry_cycles = interrupt_entry_cycles
        self.mret_cycles = mret_cycles
        self.instruction_memory = instruction_memory
        self.registers: Dict[str, int] = {}
        # When True the core's clock is gated while sleeping (the PELS-driven
        # scenarios): WFI cycles then cost no clock-tree activity.
        self.clock_gated = False
        self.state = CpuState.SLEEPING
        self._isr_table: Dict[int, List[Instruction]] = {}
        self._isr_done_callbacks: Dict[int, Callable[[], None]] = {}
        self._current_isr: List[Instruction] = []
        self._current_irq: Optional[int] = None
        self._pc = 0
        self._countdown = 0
        self._pending_request: Optional[BusRequest] = None
        self._pending_load_dest: Optional[str] = None
        # Statistics consumed by the latency and power analyses.
        self.instructions_retired = 0
        self.interrupts_serviced = 0
        self.sleep_cycles = 0
        self.active_cycles = 0
        self.stall_cycles = 0
        self.loads = 0
        self.stores = 0
        self.last_interrupt_cycle: Optional[int] = None
        self.last_handler_done_cycle: Optional[int] = None
        self.last_store_complete_cycle: Optional[int] = None

    # ------------------------------------------------------------ configuration

    def register_isr(
        self,
        irq_number: int,
        instructions: List[Instruction],
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Install the handler executed when ``irq_number`` is taken."""
        if irq_number < 0:
            raise ValueError("irq number must be non-negative")
        # A handler for an already pending interrupt wakes a sleeping core.
        self.sync()
        self._isr_table[irq_number] = list(instructions)
        if on_done is not None:
            self._isr_done_callbacks[irq_number] = on_done
        self.wake_changed()

    # ---------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        if self.state is CpuState.SLEEPING:
            self._tick_sleeping(cycle)
        elif self.state is CpuState.INTERRUPT_ENTRY:
            self._tick_countdown(cycle, next_state=CpuState.EXECUTING)
        elif self.state is CpuState.EXECUTING:
            self._tick_executing(cycle)
        elif self.state is CpuState.STALLED:
            self._tick_stalled(cycle)
        elif self.state is CpuState.MRET:
            self._tick_countdown(cycle, next_state=CpuState.SLEEPING)

    def _tick_sleeping(self, cycle: int) -> None:
        self.sleep_cycles += 1
        self.record("gated_cycles" if self.clock_gated else "sleep_cycles")
        if self.irq_controller is None or not self.irq_controller.has_pending:
            return
        irq_number = self.irq_controller.highest_pending()
        assert irq_number is not None
        if irq_number not in self._isr_table:
            return
        self.irq_controller.claim(irq_number)
        self._current_irq = irq_number
        self._current_isr = self._isr_table[irq_number]
        self._pc = 0
        self._countdown = self.interrupt_entry_cycles
        self.state = CpuState.INTERRUPT_ENTRY
        self.last_interrupt_cycle = cycle
        self.interrupts_serviced += 1
        self.record("interrupts_taken")

    def _tick_countdown(self, cycle: int, next_state: CpuState) -> None:
        self.active_cycles += 1
        self.record("active_cycles")
        self._fetch_activity()
        self._countdown -= 1
        if self._countdown > 0:
            return
        if next_state is CpuState.SLEEPING:
            self._finish_handler(cycle)
        self.state = next_state

    def _tick_executing(self, cycle: int) -> None:
        self.active_cycles += 1
        self.record("active_cycles")
        if self._pc >= len(self._current_isr):
            self._countdown = self.mret_cycles
            self.state = CpuState.MRET
            self._fetch_activity()
            return
        instruction = self._current_isr[self._pc]
        self._fetch_activity()
        self._execute(instruction, cycle)

    def _tick_stalled(self, cycle: int) -> None:
        self.active_cycles += 1
        self.stall_cycles += 1
        self.record("active_cycles")
        self.record("stall_cycles")
        request = self._pending_request
        if request is None or not request.done:
            return
        if request.error:
            # A bus-error response surfaces to software as a zero read / lost
            # store; the handler continues (Ibex would trap, but the linking
            # handlers here have no recovery path beyond carrying on).
            self.record("bus_errors")
        if request.kind is TransferKind.READ and self._pending_load_dest is not None:
            self.registers[self._pending_load_dest] = 0 if request.error else request.rdata
        if request.kind is TransferKind.WRITE and request.response is not None:
            self.last_store_complete_cycle = request.response.completed_cycle
        self._pending_request = None
        self._pending_load_dest = None
        self.instructions_retired += 1
        self._pc += 1
        self.state = CpuState.EXECUTING

    # ----------------------------------------------------------- instruction exec

    def _execute(self, instruction: Instruction, cycle: int) -> None:
        if isinstance(instruction, Li):
            self.registers[instruction.dest] = instruction.immediate & WORD_MASK
            self._retire()
        elif isinstance(instruction, Alu):
            source = self.registers.get(instruction.src, 0)
            self.registers[instruction.dest] = instruction.op.apply(source, instruction.immediate)
            self._retire()
        elif isinstance(instruction, Nop):
            # A multi-cycle NOP models handler bookkeeping; burn the cycles inline.
            if instruction.cycles > 1:
                self._countdown = instruction.cycles - 1
                self.state = CpuState.INTERRUPT_ENTRY  # reuse the countdown machinery
            self._retire()
        elif isinstance(instruction, Branch):
            value = self.registers.get(instruction.src, 0)
            taken = instruction.condition.evaluate(value, instruction.immediate)
            self.record("branches")
            if taken:
                self.record("branches_taken")
                self._pc += instruction.skip_count
                self.active_cycles += TAKEN_BRANCH_PENALTY
                self.record("active_cycles", TAKEN_BRANCH_PENALTY)
            self._retire()
        elif isinstance(instruction, Load):
            self._issue_memory(TransferKind.READ, instruction.address, 0)
            self._pending_load_dest = instruction.dest
            self.loads += 1
            self.record("loads")
        elif isinstance(instruction, Store):
            value = self.registers.get(instruction.src, 0)
            self._issue_memory(TransferKind.WRITE, instruction.address, value)
            self.stores += 1
            self.record("stores")
        else:  # pragma: no cover - all instruction kinds handled
            raise RuntimeError(f"unknown instruction {instruction!r}")

    def _retire(self) -> None:
        self.instructions_retired += 1
        self._pc += 1

    def _issue_memory(self, kind: TransferKind, address: int, value: int) -> None:
        if self.interconnect is None:
            raise RuntimeError(f"{self.name}: load/store issued but no interconnect connected")
        request = BusRequest(master=self.name, kind=kind, address=address, wdata=value)
        self.interconnect.submit(request)
        self._pending_request = request
        self.state = CpuState.STALLED

    def _fetch_activity(self) -> None:
        """Account one instruction fetch from the SRAM banks."""
        self.record("ifetches")
        if self.instruction_memory is not None and hasattr(self.instruction_memory, "record_fetch"):
            self.instruction_memory.record_fetch()

    def _finish_handler(self, cycle: int) -> None:
        self.last_handler_done_cycle = cycle
        callback = self._isr_done_callbacks.get(self._current_irq or -1)
        if callback is not None:
            callback()
        self._current_irq = None
        self._current_isr = []
        self._pc = 0
        self.record("handlers_completed")

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        if self.state is not CpuState.SLEEPING:
            return 1
        if self.irq_controller is not None and self.irq_controller.has_pending:
            irq_number = self.irq_controller.highest_pending()
            if irq_number in self._isr_table:
                return 1
        # WFI with nothing serviceable: the clock still toggles (or is gated),
        # which skip() accounts for, but only an external interrupt wakes us.
        return None

    def skip(self, cycles: int) -> None:
        if self.state is not CpuState.SLEEPING:
            return
        self.sleep_cycles += cycles
        self.record("gated_cycles" if self.clock_gated else "sleep_cycles", cycles)

    # ------------------------------------------------------------------- status

    @property
    def sleeping(self) -> bool:
        """Whether the core is in WFI."""
        return self.state is CpuState.SLEEPING

    @property
    def busy(self) -> bool:
        """Whether the core is handling an interrupt."""
        return self.state is not CpuState.SLEEPING

    def reset(self) -> None:
        self.registers = {}
        self.state = CpuState.SLEEPING
        self._current_isr = []
        self._current_irq = None
        self._pc = 0
        self._countdown = 0
        self._pending_request = None
        self._pending_load_dest = None
        self.instructions_retired = 0
        self.interrupts_serviced = 0
        self.sleep_cycles = 0
        self.active_cycles = 0
        self.stall_cycles = 0
        self.loads = 0
        self.stores = 0
        self.last_interrupt_cycle = None
        self.last_handler_done_cycle = None
        self.last_store_complete_cycle = None
