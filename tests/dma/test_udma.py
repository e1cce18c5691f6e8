"""Tests for the µDMA engine."""

import pytest

from repro.bus.interconnect import SystemInterconnect
from repro.dma.udma import DmaChannel, MicroDma
from repro.peripherals.events import EventFabric
from repro.peripherals.sensor import SensorWaveform, SyntheticSensor
from repro.peripherals.spi import SpiController
from repro.sim.simulator import Simulator
from repro.soc.memory import SramBank


def make_dma_system(samples=(1, 2, 3, 4, 5, 6, 7, 8), length=4):
    simulator = Simulator()
    fabric = EventFabric()
    sensor = SyntheticSensor(waveform=SensorWaveform(kind="sequence", values=samples))
    spi = SpiController("spi", sensor=sensor, cycles_per_word=2)
    spi.connect_events(fabric)
    spi.regs.reg("LEN").hw_write(length)
    sram = SramBank("sram", size_bytes=4096)
    interconnect = SystemInterconnect("soc_interconnect")
    interconnect.attach_memory(0x1C00_0000, 4096, sram)
    udma = MicroDma("udma", interconnect=interconnect, fabric=fabric)
    channel = udma.add_channel(source=spi, destination_address=0x1C00_0100, length_words=length)
    for component in (spi, udma, interconnect, sram):
        simulator.add_component(component)
    return simulator, fabric, spi, udma, channel, sram


class TestMicroDma:
    def test_moves_words_to_memory_in_order(self):
        simulator, _, spi, udma, _, sram = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        assert udma.total_words_moved == 4
        assert [sram.peek(0x100 + 4 * index) for index in range(4)] == [1, 2, 3, 4]

    def test_transfer_complete_event_pulsed(self):
        simulator, fabric, spi, udma, channel, _ = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        line_name = udma.channel_event_line(channel)
        assert fabric.line(line_name).pulse_count == 1
        assert channel.transfers_completed == 1

    def test_consecutive_transfers_wrap_buffer(self):
        simulator, _, spi, udma, channel, sram = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        spi.on_event_input("start")
        simulator.step(20)
        assert channel.transfers_completed == 2
        assert [sram.peek(0x100 + 4 * index) for index in range(4)] == [5, 6, 7, 8]

    def test_does_not_wake_processing_domain(self):
        """The whole point of the µDMA: sensor readout without CPU activity."""
        simulator, _, spi, _, _, _ = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        assert simulator.activity.get("ibex", "active_cycles") == 0

    def test_next_event_is_none_once_the_source_fifo_is_empty(self):
        # Writes are posted: after the last word the engine has nothing
        # left to do, not even a write to retire.
        simulator, _, spi, udma, _, _ = make_dma_system()
        assert udma.next_event() is None
        spi.on_event_input("start")
        seen = []
        for _ in range(20):
            simulator.step(1)
            seen.append((spi.rx_level, udma.next_event()))
        assert udma.total_words_moved == 4
        assert all(wake is None for level, wake in seen if level == 0)
        assert (0, None) in seen

    def test_channel_validation(self):
        _, _, spi, udma, _, _ = make_dma_system()
        with pytest.raises(ValueError):
            DmaChannel(channel_id=-1, source=spi, destination_address=0x0, length_words=1)
        with pytest.raises(ValueError):
            DmaChannel(channel_id=0, source=spi, destination_address=0x2, length_words=1)
        with pytest.raises(ValueError):
            DmaChannel(channel_id=0, source=spi, destination_address=0x0, length_words=0)

    def test_event_line_requires_fabric(self):
        spi = SpiController("spi2")
        udma = MicroDma("udma2", fabric=None)
        channel = udma.add_channel(source=spi, destination_address=0x0, length_words=1)
        with pytest.raises(RuntimeError):
            udma.channel_event_line(channel)

    def test_disabled_channel_does_not_move_data(self):
        simulator, _, spi, udma, channel, _ = make_dma_system()
        channel.enabled = False
        spi.on_event_input("start")
        simulator.step(20)
        assert udma.total_words_moved == 0
        assert spi.rx_level == 4

    def test_activity_recorded(self):
        simulator, _, spi, udma, _, _ = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        assert simulator.activity.get("udma", "words_moved") == 4
        assert simulator.activity.get("udma", "transfers_completed") == 1

    def test_reset(self):
        simulator, _, spi, udma, channel, _ = make_dma_system()
        spi.on_event_input("start")
        simulator.step(20)
        udma.reset()
        assert udma.total_words_moved == 0
        assert channel.words_moved == 0
