"""Channel-based µDMA model.

Each :class:`DmaChannel` pairs a source peripheral RX FIFO (currently the SPI
controller's) with a destination buffer in L2/SRAM.  The engine moves one
word per cycle and channel when data is available, writes it to memory
through the SoC interconnect, and pulses a per-channel ``eot`` event line on
the event fabric when the programmed length completes — the event PELS (or
the interrupt controller, in the baseline) links on.

Writes are posted: the engine hands each word to the interconnect, which
completes it in its own tick, and never looks at the request again.  So the
µDMA needs no tick after a move; it wakes only when a word can move.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bus.interconnect import SystemInterconnect
from repro.bus.transaction import BusRequest, TransferKind
from repro.peripherals.events import EventFabric
from repro.peripherals.spi import SpiController
from repro.sim.component import Component


class DmaChannel:
    """Configuration and progress state of one µDMA channel.

    ``enabled`` is a property: flipping it moves the owning µDMA's wake, so
    the setter catches the µDMA up first and re-polls it afterwards.
    """

    def __init__(
        self,
        channel_id: int,
        source: SpiController,
        destination_address: int,
        length_words: int,
        dma: Optional[MicroDma] = None,
    ) -> None:
        if channel_id < 0:
            raise ValueError("channel id must be non-negative")
        if destination_address % 4 != 0:
            raise ValueError("destination address must be word aligned")
        if length_words < 1:
            raise ValueError("transfer length must be at least one word")
        self.channel_id = channel_id
        self.source = source
        self.destination_address = destination_address
        self.length_words = length_words
        self.dma = dma
        self._enabled = True
        self.words_moved = 0
        self.transfers_completed = 0

    @property
    def enabled(self) -> bool:
        """Whether the channel moves words out of its source FIFO."""
        return self._enabled

    @enabled.setter
    def enabled(self, enabled: bool) -> None:
        dma = self.dma
        if dma is not None:
            dma.sync()
        self._enabled = enabled
        if dma is not None:
            dma.wake_changed()

    def restart(self) -> None:
        """Re-arm the channel for another transfer of ``length_words``."""
        self.enabled = True


class MicroDma(Component):
    """The µDMA engine: moves peripheral data to memory and signals completion.

    Its SRAM writes are posted (the interconnect completes them), so it
    needs no tick after a move.  Wake-cacheable: besides its own ticks,
    only a word landing in a source FIFO (the SPI notifies its readers), a
    channel enable and :meth:`add_channel` move its wake.
    """

    wake_cacheable = True

    def __init__(
        self,
        name: str = "udma",
        interconnect: Optional[SystemInterconnect] = None,
        fabric: Optional[EventFabric] = None,
    ) -> None:
        super().__init__(name)
        self.interconnect = interconnect
        self.fabric = fabric
        self.channels: List[DmaChannel] = []
        self._event_lines: dict[int, str] = {}
        self._progress: dict[int, int] = {}
        self.total_words_moved = 0

    def add_channel(
        self,
        source: SpiController,
        destination_address: int,
        length_words: int,
    ) -> DmaChannel:
        """Create, register, and return a new channel."""
        channel = DmaChannel(
            channel_id=len(self.channels),
            source=source,
            destination_address=destination_address,
            length_words=length_words,
            dma=self,
        )
        self.channels.append(channel)
        source.add_rx_reader(self)
        self._progress[channel.channel_id] = 0
        if self.fabric is not None:
            line = self.fabric.add_line(f"{self.name}.ch{channel.channel_id}_eot", producer=self.name)
            self.fabric.register_producer(line.name, self)
            self._event_lines[channel.channel_id] = line.name
        self.wake_changed()
        return channel

    def channel_event_line(self, channel: DmaChannel) -> str:
        """Fabric line pulsed when ``channel`` finishes a transfer."""
        try:
            return self._event_lines[channel.channel_id]
        except KeyError as exc:
            raise RuntimeError("µDMA has no event fabric connected") from exc

    def tick(self, cycle: int) -> None:
        moved_any = False
        for channel in self.channels:
            if not channel.enabled or channel.source.rx_level == 0:
                continue
            moved_any = True
            self._move_word(channel, cycle)
        if moved_any:
            self.record("busy_cycles")

    def _move_word(self, channel: DmaChannel, cycle: int) -> None:
        channel.source.sync()
        word = channel.source.pop_rx()
        progress = self._progress[channel.channel_id]
        address = channel.destination_address + 4 * progress
        if self.interconnect is not None:
            self.interconnect.submit(BusRequest(master=self.name, kind=TransferKind.WRITE, address=address, wdata=word))
        channel.words_moved += 1
        self.total_words_moved += 1
        self.record("words_moved")
        progress += 1
        if progress >= channel.length_words:
            progress = 0
            channel.transfers_completed += 1
            self.record("transfers_completed")
            if self.fabric is not None:
                self.fabric.pulse(self._event_lines[channel.channel_id])
        self._progress[channel.channel_id] = progress

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        # Quiescent while no channel could move a word.  A source FIFO fills
        # only in its SPI's dense tick, which notifies this engine
        # (SpiController.add_rx_reader).
        for channel in self.channels:
            if channel.enabled and channel.source.rx_level > 0:
                return 1
        return None

    def reset(self) -> None:
        for channel in self.channels:
            channel.words_moved = 0
            channel.transfers_completed = 0
        for channel_id in self._progress:
            self._progress[channel_id] = 0
        self.total_words_moved = 0
