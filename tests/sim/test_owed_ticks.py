"""Owed ticks: wake-cached components that are not due catch up on demand.

In event-driven stepping the kernel ticks a wake-cached component only when
it is due and lets its quiescent ticks pile up as a debt paid with one
``skip``.  Whoever touches the component from inside the simulation syncs
it first; a cross-component invalidation that arrives while ticks are still
owed raises instead of serving stale state.
"""

import pytest

from repro.baselines.event_interconnect import EventInterconnect
from repro.bus.interconnect import SystemInterconnect
from repro.bus.transaction import read_request
from repro.dma.udma import MicroDma
from repro.peripherals.events import EventFabric
from repro.peripherals.sensor import SensorWaveform, SyntheticSensor
from repro.peripherals.spi import SpiController
from repro.peripherals.timer import Timer
from repro.peripherals.watchdog import Watchdog
from repro.sim.component import Component
from repro.sim.simulator import SimulationError, Simulator
from repro.soc.memory import SramBank


class CompareWriter(Component):
    """Writes the timer's COMPARE register straight from its own tick at
    local cycle ``at`` — a master path, optionally without a sync."""

    def __init__(self, timer, at, sync):
        super().__init__("writer")
        self.timer = timer
        self.at = at
        self.sync_first = sync

    def tick(self, cycle):
        if cycle == self.at:
            if self.sync_first:
                self.timer.sync()
            compare = self.timer.regs.reg("COMPARE")
            compare.write(self.timer.regs.reg("COUNT").value + 25)

    def next_event(self):
        remaining = self.at - self.clock.cycles
        return remaining + 1 if remaining >= 0 else None


def _writer_system(dense, sync):
    simulator = Simulator(dense=dense)
    timer = simulator.add_component(Timer("timer", compare=1_000))
    simulator.add_component(CompareWriter(timer, at=100, sync=sync))
    timer.start()
    return simulator, timer


class TestGuard:
    def test_an_unsynced_write_from_another_tick_raises_naming_the_target(self):
        simulator, _ = _writer_system(dense=False, sync=False)
        with pytest.raises(SimulationError, match=r"'timer'.*101 ticks were still owed"):
            simulator.step(200)

    def test_the_same_write_after_a_sync_matches_dense(self):
        outcomes = {}
        for dense in (True, False):
            simulator, timer = _writer_system(dense=dense, sync=True)
            simulator.step(400)
            outcomes[dense] = (
                timer.overflow_count,
                {register.name: register.value for register in timer.regs.registers()},
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        # COUNT is 101 at the write, so COMPARE becomes 126: three wraps.
        assert outcomes[False][0] == 3


class TestMasterPaths:
    def test_a_memory_side_read_sees_the_current_count(self):
        """SystemInterconnect completes local accesses itself: it must catch
        a cached slave up before reading it."""
        results = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            timer = simulator.add_component(Timer("timer", compare=10_000))
            interconnect = SystemInterconnect("soc_interconnect")
            interconnect.attach_memory(0x1000, 0x100, timer)
            simulator.add_component(interconnect)
            timer.start()
            simulator.step(300)
            request = interconnect.submit(read_request("cpu", 0x1000 + timer.regs.offset_of("COUNT")))
            simulator.step(50)
            results[dense] = (request.rdata, request.response.completed_cycle, timer.regs.reg("COUNT").value)
        assert results[True] == results[False]
        assert results[False][0] == 301

    def test_an_event_interconnect_kick_catches_the_watchdog_up(self):
        """The watchdog counts down between timer overflows and owes those
        ticks; the channel delivering ``kick`` must sync it first."""
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            fabric = EventFabric()
            timer = Timer("timer", compare=50)
            wdt = Watchdog("wdt", timeout=120, grace=40)
            for peripheral in (timer, wdt):
                peripheral.connect_events(fabric)
                simulator.add_component(peripheral)
            router = simulator.add_component(EventInterconnect("prs", fabric=fabric, n_channels=2))
            simulator.add_component(_FabricCloser(fabric))
            router.configure_channel(0, [timer.event_line_name("overflow")])
            router.route_to_peripheral(0, wdt, "kick")
            timer.start()
            wdt.start()
            simulator.step(700)
            outcomes[dense] = (
                wdt.kicks,
                wdt.regs.reg("COUNT").value,
                wdt.barks,
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][0] == 14 and outcomes[False][2] == 0

    def test_a_slower_dma_pops_a_caught_up_fifo(self):
        """A µDMA clocked at a quarter of the SPI's rate pops a received word
        up to three SPI ticks later, which the SPI owes by then: the pop
        must sync it first."""
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(default_frequency_hz=40e6, dense=dense)
            slow = simulator.add_clock_domain("slow", 10e6)
            sram = SramBank("sram", size_bytes=256)
            interconnect = SystemInterconnect("soc_interconnect")
            interconnect.attach_memory(0x1000, 256, sram)
            spi = SpiController("spi", sensor=SyntheticSensor(waveform=SensorWaveform(kind="ramp")), cycles_per_word=5)
            udma = MicroDma("udma", interconnect=interconnect)
            udma.add_channel(source=spi, destination_address=0x1000, length_words=3)
            simulator.add_component(spi)
            simulator.add_component(udma, domain=slow)
            simulator.add_component(interconnect)
            simulator.add_component(sram)
            spi.regs.reg("LEN").write(3)
            spi.regs.reg("CTRL").write(1)
            simulator.step(60)
            outcomes[dense] = (
                [sram.peek(4 * word) for word in range(3)],
                udma.total_words_moved,
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][1] == 3

    @pytest.mark.parametrize("subscribe", [False, True], ids=["observe", "subscribe"])
    def test_observing_a_line_catches_its_producer_up_before_the_flip(self, subscribe):
        """An unobserved free-running timer owes ticks across overflows; they
        must be paid while the line is still unobserved, then re-bounded."""
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            fabric = EventFabric()
            timer = Timer("timer", compare=5)
            timer.connect_events(fabric)
            simulator.add_component(timer)
            line = None if subscribe else timer.event_line_name("overflow")
            simulator.add_component(_Observer(fabric, line, at=23))
            simulator.add_component(_FabricCloser(fabric))
            timer.start()
            simulator.step(60)
            outcomes[dense] = (timer.overflow_count, fabric.total_pulses, simulator.activity.as_dict())
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][0] == 12


class _Observer(Component):
    """Starts observing ``line`` (every line when ``None``, through a
    subscription) from its own tick at local cycle ``at``."""

    def __init__(self, fabric, line, at):
        super().__init__("observer")
        self._fabric = fabric
        self._line = line
        self._at = at

    def tick(self, cycle):
        if cycle == self._at:
            if self._line is None:
                self._fabric.subscribe(lambda line: None)
            else:
                self._fabric.observe(self._line)

    def next_event(self):
        remaining = self._at - self.clock.cycles
        return remaining + 1 if remaining >= 0 else None


class _FabricCloser(Component):
    def __init__(self, fabric):
        super().__init__("closer")
        self._fabric = fabric

    def tick(self, cycle):
        self._fabric.end_cycle()

    def next_event(self):
        return 1 if self._fabric.active_mask() else None
