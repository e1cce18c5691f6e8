"""APB-style peripheral bus model.

The bus is a :class:`~repro.sim.component.Component`.  Masters post
:class:`~repro.bus.transaction.BusRequest` objects with :meth:`ApbBus.submit`
and poll ``request.done``.  Each transfer costs:

* one *setup* cycle,
* one *access* cycle, plus
* any wait states the addressed slave requests (``slave.wait_states``), plus
* arbitration wait if another master holds the bus.

This matches the paper's description of sequenced-action latency being
"dependent on the peripheral bus protocol (APB)" while instant actions bypass
the bus entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.bus.arbiter import RoundRobinArbiter
from repro.bus.decoder import AddressDecoder, BusSlave, DecodeError
from repro.bus.transaction import BusRequest, WORD_MASK
from repro.sim.component import Component

APB_SETUP_CYCLES = 1
APB_ACCESS_CYCLES = 1


class BusError(RuntimeError):
    """Raised on protocol misuse (e.g. two outstanding requests per master)."""


class ApbBus(Component):
    """Single-channel APB fabric with round-robin arbitration.

    Its wake moves only in its own ticks and in :meth:`submit`, which every
    master goes through, so the bus is wake-cacheable: while idle it is
    never polled and its idle cycles are owed, not ticked.
    """

    wake_cacheable = True

    def __init__(self, name: str = "apb", decoder: Optional[AddressDecoder] = None) -> None:
        super().__init__(name)
        self.decoder = decoder if decoder is not None else AddressDecoder()
        self.arbiter = RoundRobinArbiter()
        self._pending: Dict[str, Deque[BusRequest]] = {}
        self._active: Optional[BusRequest] = None
        self._remaining_cycles = 0
        self._active_slave: Optional[BusSlave] = None
        self._active_offset = 0
        self._completed_transfers = 0

    # ---------------------------------------------------------------- plumbing

    def attach_slave(self, base: int, size: int, slave: BusSlave) -> None:
        """Register ``slave`` at address window ``[base, base + size)``."""
        self.decoder.add_region(base, size, slave)

    def submit(self, request: BusRequest) -> BusRequest:
        """Queue a transfer for arbitration.

        Multiple masters may have requests queued simultaneously; a single
        master may queue several back-to-back transfers (they complete in
        order).
        """
        if request.done:
            raise BusError("cannot submit an already-completed request")
        # Catch up on owed idle cycles before the queue stops being empty.
        self.sync()
        queue = self._pending.setdefault(request.master, deque())
        queue.append(request)
        self.arbiter.add_requestor(request.master)
        request.issued_cycle = self.simulator.current_cycle if self.is_attached else 0
        self.wake_changed()
        return request

    @property
    def busy(self) -> bool:
        """Whether a transfer is currently in flight."""
        return self._active is not None

    @property
    def has_pending(self) -> bool:
        """Whether any master still has queued transfers."""
        # A plain loop: this runs on every idle tick and wake poll, where a
        # generator expression costs about twice as much.
        for queue in self._pending.values():
            if queue:
                return True
        return False

    @property
    def completed_transfers(self) -> int:
        """Total number of transfers completed since the last reset."""
        return self._completed_transfers

    # --------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        if self._active is not None:
            # APB transfers do not overlap: the cycle that finishes one access
            # is not reused as the setup phase of the next.
            self._advance_active(cycle)
            return
        if self.has_pending:
            self._start_next(cycle)
            return
        # Idle: the arbiter is stateless for an empty round.
        self.record("idle_cycles")

    def _advance_active(self, cycle: int) -> None:
        self.record("busy_cycles")
        self._remaining_cycles -= 1
        if self._remaining_cycles > 0:
            return
        request = self._active
        slave = self._active_slave
        assert request is not None and slave is not None
        self.simulator.state.sync(slave)
        if request.is_read:
            rdata = slave.bus_read(self._active_offset) & WORD_MASK
            self.record("reads")
        else:
            slave.bus_write(self._active_offset, request.wdata & WORD_MASK)
            rdata = 0
            self.record("writes")
        request.complete(rdata, cycle)
        self._completed_transfers += 1
        self.simulator.trace(f"{self.name}.transfer", f"{request.master}:{request.kind.value}@0x{request.address:08x}")
        self._active = None
        self._active_slave = None

    def _start_next(self, cycle: int) -> None:
        requesting = [master for master, queue in self._pending.items() if queue]
        granted = self.arbiter.grant(requesting)
        request = self._pending[granted].popleft()
        try:
            slave, offset = self.decoder.decode(request.address)
        except DecodeError:
            # APB error response (PSLVERR): the transfer completes immediately
            # with the error flag set instead of hanging the fabric.
            request.complete(0, cycle, error=True)
            self.record("decode_errors")
            self._completed_transfers += 1
            return
        wait_states = int(getattr(slave, "wait_states", 0))
        self._active = request
        self._active_slave = slave
        self._active_offset = offset
        # The grant cycle doubles as the APB setup phase, so only the access
        # phase and any slave wait states remain after this tick.
        self._remaining_cycles = APB_ACCESS_CYCLES + wait_states
        self.record("busy_cycles")
        self.record("grants")
        self.record(f"grants_to_{granted}")

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        if self._active is not None:
            # The in-flight transfer completes (slave access, master wake-up)
            # in the tick entered with one remaining cycle; the access/wait
            # cycles before it only count down and record busy activity.
            return max(self._remaining_cycles, 1)
        if self.has_pending:
            # The next tick is the grant/setup phase of a queued transfer.
            return 1
        return None

    def skip(self, cycles: int) -> None:
        if self._active is not None:
            # Replay the wait/access countdown: one busy cycle recorded per
            # tick, no slave interaction until the completion tick (which the
            # scheduler always runs densely).
            self.record("busy_cycles", cycles)
            self._remaining_cycles -= cycles
            return
        if self.has_pending:
            return
        # An idle dense tick runs one empty arbitration round per cycle and
        # records it; the arbiter itself is stateless for an empty round.
        self.record("idle_cycles", cycles)

    def reset(self) -> None:
        self._pending.clear()
        self._active = None
        self._active_slave = None
        self._remaining_cycles = 0
        self._completed_transfers = 0
        self.arbiter.reset()
