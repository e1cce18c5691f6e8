"""SPI controller model.

The functional evaluation in the paper performs a "threshold-crossing check
after I/O DMA-managed sensor readout through the SPI interface".  The model
therefore focuses on the receive path: a transfer of N words is started (by
software, PELS, or the µDMA), each word takes a programmable number of cycles
on the (virtual) serial interface, received words land in an RX FIFO, and an
``eot`` (end of transfer) event is pulsed when the requested length
completes.  The serial counterparty is a :class:`SyntheticSensor`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.peripherals.base import Peripheral
from repro.peripherals.events import EventFabric
from repro.peripherals.sensor import SyntheticSensor
from repro.sim.component import Component

CTRL_START = 0x1
STATUS_EOT = 0x1
STATUS_BUSY = 0x2
STATUS_RX_AVAILABLE = 0x4
DEFAULT_RX_FIFO_DEPTH = 8


class SpiController(Peripheral):
    """SPI master with RX FIFO, per-word timing, and end-of-transfer event.

    Register map (byte offsets):

    ========  =============  =================================================
    offset    name           function
    ========  =============  =================================================
    0x00      CTRL           bit0 start transfer (self-clearing)
    0x04      LEN            number of words in the transfer
    0x08      RXDATA         pop one word from the RX FIFO (read side effect)
    0x0C      STATUS         bit0 EOT flag (W1C), bit1 busy, bit2 RX available
    0x10      CLK_DIV        cycles per received word (>= 1)
    0x14      AFLAG          application flag register used by Figure 3's
                             ``clear AFLAG MASK`` command
    ========  =============  =================================================
    """

    #: Transfer starts (register or event input) always touch STATUS, so the
    #: register-file notify covers every horizon change; FIFO drains by the
    #: µDMA do not move the wake (it tracks the shift timer, not the FIFO).
    wake_cacheable = True

    def __init__(
        self,
        name: str = "spi",
        sensor: Optional[SyntheticSensor] = None,
        cycles_per_word: int = 4,
        rx_fifo_depth: int = DEFAULT_RX_FIFO_DEPTH,
    ) -> None:
        super().__init__(name)
        if cycles_per_word < 1:
            raise ValueError("cycles_per_word must be >= 1")
        if rx_fifo_depth < 1:
            raise ValueError("rx_fifo_depth must be >= 1")
        self.sensor = sensor if sensor is not None else SyntheticSensor(f"{name}_sensor")
        self.rx_fifo_depth = rx_fifo_depth
        self.regs.define("CTRL", 0x00, on_write=self._on_ctrl_write)
        self.regs.define("LEN", 0x04, reset=1)
        self.regs.define("RXDATA", 0x08, writable_mask=0, on_read=self._on_rxdata_read)
        self.regs.define("STATUS", 0x0C, write_one_to_clear=True)
        self.regs.define("CLK_DIV", 0x10, reset=cycles_per_word)
        self.regs.define("AFLAG", 0x14)
        self._rx_fifo: Deque[int] = deque()
        #: Components that drain the RX FIFO (µDMA engines): a received
        #: word moves their wake.
        self._rx_readers: List[Component] = []
        self._words_remaining = 0
        self._word_timer = 0
        self.transfers_completed = 0
        self.words_received = 0
        self.rx_overflows = 0

    # ----------------------------------------------------------------- events

    def declare_events(self, fabric: EventFabric) -> None:
        self.add_output_event("eot")
        self.add_output_event("rx_ready")

    def on_event_input(self, local_name: str) -> None:
        """``start`` input begins a transfer with the current LEN setting."""
        super().on_event_input(local_name)
        if local_name == "start":
            self._start_transfer()

    # --------------------------------------------------------- register hooks

    def _on_ctrl_write(self, value: int) -> None:
        if value & CTRL_START:
            self.regs.reg("CTRL").clear_bits(CTRL_START)
            self._start_transfer()

    def _on_rxdata_read(self) -> None:
        if self._rx_fifo:
            self.regs.reg("RXDATA").hw_write(self._rx_fifo.popleft())
        if not self._rx_fifo:
            self.regs.reg("STATUS").clear_bits(STATUS_RX_AVAILABLE)

    # --------------------------------------------------------------- behaviour

    def _start_transfer(self) -> None:
        if self.busy:
            self.record("start_while_busy")
            return
        length = max(self.regs.reg("LEN").value, 1)
        self._words_remaining = length
        self._word_timer = max(self.regs.reg("CLK_DIV").value, 1)
        self.regs.reg("STATUS").set_bits(STATUS_BUSY)
        self.record("transfers_started")

    def tick(self, cycle: int) -> None:
        if self._words_remaining <= 0:
            return
        self.record("shifting_cycles")
        self._word_timer -= 1
        if self._word_timer > 0:
            return
        self._receive_word()
        self._words_remaining -= 1
        if self._words_remaining > 0:
            self._word_timer = max(self.regs.reg("CLK_DIV").value, 1)
            return
        status = self.regs.reg("STATUS")
        status.clear_bits(STATUS_BUSY)
        status.set_bits(STATUS_EOT)
        self.transfers_completed += 1
        if self._fabric is not None:
            self.emit_event("eot")

    def _receive_word(self) -> None:
        word = self.sensor.next_sample()
        if len(self._rx_fifo) >= self.rx_fifo_depth:
            self._rx_fifo.popleft()
            self.rx_overflows += 1
            self.record("rx_overflows")
        self._rx_fifo.append(word)
        self.words_received += 1
        self.regs.reg("STATUS").set_bits(STATUS_RX_AVAILABLE)
        # RXDATA mirrors the most recently received word so a linking agent
        # that reads it after the µDMA drained the FIFO still sees the last
        # sample of the transfer (the value the threshold check needs).
        self.regs.reg("RXDATA").hw_write(word)
        if self._fabric is not None:
            self.emit_event("rx_ready")
        for reader in self._rx_readers:
            reader.sync()
            reader.wake_changed()

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        if self._words_remaining <= 0:
            return None
        # Receiving a word pulses ``rx_ready`` (and possibly ``eot``), so the
        # wake is the tick in which the per-word timer expires.
        return max(self._word_timer, 1)

    def skip(self, cycles: int) -> None:
        if self._words_remaining <= 0:
            return
        self.record("shifting_cycles", cycles)
        self._word_timer -= cycles

    # ----------------------------------------------------------------- queries

    @property
    def busy(self) -> bool:
        """Whether a transfer is in progress."""
        return self._words_remaining > 0

    @property
    def rx_level(self) -> int:
        """Number of words currently waiting in the RX FIFO."""
        return len(self._rx_fifo)

    def add_rx_reader(self, reader: Component) -> None:
        """Register a component that drains the RX FIFO, so that every
        received word catches it up and re-polls its wake."""
        if reader not in self._rx_readers:
            self._rx_readers.append(reader)

    def pop_rx(self) -> int:
        """µDMA-side helper: pop the oldest received word."""
        if not self._rx_fifo:
            raise RuntimeError(f"{self.name}: RX FIFO is empty")
        word = self._rx_fifo.popleft()
        if not self._rx_fifo:
            self.regs.reg("STATUS").clear_bits(STATUS_RX_AVAILABLE)
        return word

    def reset(self) -> None:
        super().reset()
        self._rx_fifo.clear()
        self._words_remaining = 0
        self._word_timer = 0
        self.transfers_completed = 0
        self.words_received = 0
        self.rx_overflows = 0
