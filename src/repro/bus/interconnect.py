"""SoC-level interconnect.

PULPissimo has two fabrics (Figure 4 of the paper): the *SoC interconnect*
that connects the core, the µDMA, and the memory banks, and the *peripheral
interconnect* (APB) behind it.  The SoC interconnect is modelled here as a
logarithmic crossbar with single-cycle access to SRAM and a bridge to the
peripheral bus; what matters for the evaluation is (i) the extra cycle the
bridge adds to CPU-initiated peripheral accesses and (ii) the memory-system
activity it records, which dominates the power difference between the Ibex
baseline and PELS.
"""

from __future__ import annotations

from typing import Optional

from repro.bus.apb import ApbBus
from repro.bus.decoder import AddressDecoder, BusSlave, DecodeError
from repro.bus.transaction import BusRequest, TransferKind, WORD_MASK
from repro.sim.component import Component

SRAM_ACCESS_CYCLES = 1
BRIDGE_CYCLES = 1


class SystemInterconnect(Component):
    """Crossbar connecting CPU/µDMA masters to SRAM and the peripheral bridge.

    Accesses that decode to a local (SRAM-side) region complete in
    ``SRAM_ACCESS_CYCLES``.  Accesses that decode to the peripheral bus are
    forwarded through a bridge that adds ``BRIDGE_CYCLES`` before the APB
    transfer starts.

    Like the APB bus it is wake-cacheable: only its own ticks and
    :meth:`submit` move its wake.
    """

    wake_cacheable = True

    def __init__(self, name: str = "soc_interconnect", peripheral_bus: Optional[ApbBus] = None) -> None:
        super().__init__(name)
        self.local_decoder = AddressDecoder()
        self.peripheral_bus = peripheral_bus
        self._in_flight: list[_InFlight] = []

    def attach_memory(self, base: int, size: int, slave: BusSlave) -> None:
        """Register a memory-side slave (SRAM bank, ROM, ...)."""
        self.local_decoder.add_region(base, size, slave)

    def submit(self, request: BusRequest) -> BusRequest:
        """Post a transfer from a SoC-side master (CPU or µDMA)."""
        local = self.local_decoder.region_for(request.address) is not None
        if not local and (
            self.peripheral_bus is None or self.peripheral_bus.decoder.region_for(request.address) is None
        ):
            raise DecodeError(
                f"address 0x{request.address:08x} is neither local memory nor peripheral space"
            )
        # Catch up on owed countdown cycles before the new entry joins them.
        self.sync()
        self._in_flight.append(
            _InFlight(request, remaining=SRAM_ACCESS_CYCLES if local else BRIDGE_CYCLES, local=local)
        )
        self.record("memory_requests" if local else "bridge_requests")
        self.wake_changed()
        return request

    def tick(self, cycle: int) -> None:
        if not self._in_flight:
            return
        still_pending: list[_InFlight] = []
        for entry in self._in_flight:
            entry.remaining -= 1
            if entry.remaining > 0:
                still_pending.append(entry)
                continue
            if entry.local:
                self._complete_local(entry.request, cycle)
            else:
                assert self.peripheral_bus is not None
                self.peripheral_bus.submit(entry.request)
                self.record("bridge_forwards")
        self._in_flight = still_pending
        if self._in_flight:
            self.record("busy_cycles")

    def _complete_local(self, request: BusRequest, cycle: int) -> None:
        slave, offset = self.local_decoder.decode(request.address)
        self.simulator.state.sync(slave)
        if request.kind is TransferKind.READ:
            rdata = slave.bus_read(offset) & WORD_MASK
            self.record("memory_reads")
        else:
            slave.bus_write(offset, request.wdata & WORD_MASK)
            rdata = 0
            self.record("memory_writes")
        request.complete(rdata, cycle)

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        # The earliest completion (slave access or bridge forward) is the
        # wake; the countdown ticks before it are uniform busy cycles.  Idle
        # is a no-op.
        if not self._in_flight:
            return None
        return max(min(entry.remaining for entry in self._in_flight), 1)

    def skip(self, cycles: int) -> None:
        if not self._in_flight:
            return
        # Replay the countdown: every in-flight entry ages, and each tick
        # with transfers still pending records one busy cycle.
        for entry in self._in_flight:
            entry.remaining -= cycles
        self.record("busy_cycles", cycles)

    def reset(self) -> None:
        self._in_flight.clear()


class _InFlight:
    """Book-keeping for one transfer moving through the interconnect."""

    __slots__ = ("request", "remaining", "local")

    def __init__(self, request: BusRequest, remaining: int, local: bool) -> None:
        self.request = request
        self.remaining = remaining
        self.local = local
