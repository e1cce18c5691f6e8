"""Owed ticks: wake-cached components that are not due catch up on demand.

In event-driven stepping the kernel ticks a wake-cached component only when
it is due and lets its quiescent ticks pile up as a debt paid with one
``skip``.  Whoever touches the component from inside the simulation syncs
it first; a cross-component invalidation that arrives while ticks are still
owed raises instead of serving stale state.
"""

import pytest

from repro.baselines.event_interconnect import EventInterconnect
from repro.bus.apb import ApbBus
from repro.bus.interconnect import SystemInterconnect
from repro.bus.transaction import read_request, write_request
from repro.cpu.ibex import IbexCore
from repro.cpu.instructions import Li, Nop
from repro.cpu.irq import InterruptController
from repro.dma.udma import MicroDma
from repro.peripherals.events import EventFabric
from repro.peripherals.sensor import SensorWaveform, SyntheticSensor
from repro.peripherals.spi import SpiController
from repro.peripherals.timer import Timer
from repro.peripherals.watchdog import Watchdog
from repro.sim.component import Component
from repro.sim.simulator import SimulationError, Simulator
from repro.soc.memory import SramBank
from repro.soc.pulpissimo import SocConfig, build_soc
from repro.sweep import campaign
from repro.sweep.execute import execute_campaign


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
        remaining = self.at - self.simulator.current_cycle
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


class TestFabricWakeHooks:
    """The SoC fabric (APB bus, SoC interconnect, µDMA, Ibex) is
    wake-cacheable: each cross-component change to its wake catches the
    target up and re-polls it.  Each test below drives one such change and
    fails without it: the idle target is never woken (the event kernel
    diverges from dense), or it is touched while it owes ticks (the guard
    raises)."""

    def test_pels_is_the_only_volatile_component_of_the_soc(self):
        soc = build_soc(SocConfig())
        state = soc.simulator._schedule_plan()
        assert [component.name for component in state.volatile] == ["pels"]
        assert {"apb", "soc_interconnect", "udma", "ibex"} <= {component.name for component in state.cached}

    def test_an_apb_submit_wakes_the_idle_bus(self):
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            timer = simulator.add_component(Timer("timer", compare=10_000))
            bus = ApbBus("apb")
            bus.attach_slave(0x1000, 0x100, timer)
            request = read_request("pels", 0x1000 + timer.regs.offset_of("COUNT"))
            simulator.add_component(_Hook(100, lambda: bus.submit(request)))
            simulator.add_component(bus)
            timer.start()
            simulator.step(200)
            outcomes[dense] = (_response(request), simulator.activity.as_dict())
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][0] == (102, 101)

    def test_an_interconnect_submit_wakes_the_idle_crossbar(self):
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            sram = SramBank("sram", size_bytes=256)
            interconnect = SystemInterconnect("soc_interconnect")
            interconnect.attach_memory(0x1000, 256, sram)
            request = write_request("ibex", 0x1010, 0xBEEF)
            simulator.add_component(_Hook(100, lambda: interconnect.submit(request)))
            simulator.add_component(interconnect)
            simulator.add_component(sram)
            simulator.step(200)
            outcomes[dense] = (_response(request), sram.peek(0x10), simulator.activity.as_dict())
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][:2] == ((0, 100), 0xBEEF)

    def test_a_received_spi_word_wakes_the_idle_dma(self):
        """The µDMA sleeps between words; every word the SPI receives must
        wake it on the push tick, after catching up the dense ticks a busy
        neighbour forced while it was not due."""
        outcomes = {}
        for dense in (True, False):
            simulator, spi, udma, _, sram = _dma_system(dense)
            spi.regs.reg("CTRL").write(1)
            simulator.step(40)
            outcomes[dense] = (
                [sram.peek(4 * word) for word in range(3)],
                udma.total_words_moved,
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][1] == 3

    def test_a_latched_interrupt_wakes_the_sleeping_core(self):
        outcomes = {}
        for dense in (True, False):
            simulator, core, _ = _irq_system(dense)
            core.register_isr(3, [Li("t0", 1), Nop()])
            simulator.step(300)
            outcomes[dense] = (
                core.interrupts_serviced,
                core.last_interrupt_cycle,
                core.last_handler_done_cycle,
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][:2] == (6, 299)

    @pytest.mark.parametrize("where", ["host", "tick"])
    def test_registering_the_isr_of_a_pending_interrupt_wakes_the_core(self, where):
        """The timer's interrupt is pending from its first overflow with no
        handler, so the core sleeps on; a handler installed at cycle 120
        (between steps, or from another component's tick) must wake it."""
        outcomes = {}
        for dense in (True, False):
            simulator, core, irq = _irq_system(dense)

            def install():
                core.register_isr(3, [Nop()])

            if where == "tick":
                simulator.add_component(_Hook(120, install))
            simulator.step(121)
            if where == "host":
                install()
            simulator.step(19)
            outcomes[dense] = (
                core.interrupts_serviced,
                core.last_interrupt_cycle,
                irq.total_interrupts,
                simulator.activity.as_dict(),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][:3] == (1, 121, 1)

    @pytest.mark.parametrize("where", ["host", "tick"])
    def test_re_enabling_a_channel_over_a_full_fifo_drains_it_on_the_same_cycle(self, where):
        """Words land in the SPI FIFO while the channel is off; the µDMA's
        wake moves when the channel is re-enabled at cycle 30 (between
        steps, or from another component's tick): it moves one word per
        cycle from cycle 31 on."""
        outcomes = {}
        for dense in (True, False):
            simulator, spi, udma, channel, _ = _dma_system(dense)
            channel.enabled = False
            spi.regs.reg("CTRL").write(1)

            def enable():
                channel.enabled = True

            if where == "tick":
                simulator.add_component(_Hook(30, enable))
            simulator.step(31)
            if where == "host":
                enable()
            levels = []
            for _ in range(6):
                simulator.step(1)
                levels.append((simulator.current_cycle, spi.rx_level, udma.total_words_moved))
            outcomes[dense] = (levels, simulator.activity.as_dict())
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][0][:4] == [(32, 2, 1), (33, 1, 2), (34, 0, 3), (35, 0, 3)]


class TestPostedDmaWrites:
    """The µDMA posts its SRAM writes: the interconnect completes each one
    in its own tick, so the engine needs no tick after a move and the
    kernel may start a span on the cycle after a burst's last word."""

    def test_a_burst_ending_mid_span_matches_dense(self):
        outcomes = {}
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            fabric = EventFabric()
            sram = SramBank("sram", size_bytes=256)
            interconnect = SystemInterconnect("soc_interconnect")
            interconnect.attach_memory(0x1000, 256, sram)
            spi = SpiController("spi", sensor=SyntheticSensor(waveform=SensorWaveform(kind="ramp")), cycles_per_word=5)
            spi.connect_events(fabric)
            spi.regs.reg("LEN").write(4)
            udma = MicroDma("udma", interconnect=interconnect, fabric=fabric)
            channel = udma.add_channel(source=spi, destination_address=0x1000, length_words=4)
            for component in (spi, udma, interconnect, sram):
                simulator.add_component(component)
            eot = udma.channel_event_line(channel)
            pulses = []

            def on_pulse(line, simulator=simulator, eot=eot, pulses=pulses):
                if line.name == eot:
                    pulses.append(simulator.current_cycle)

            fabric.subscribe(on_pulse, observe_all=False)
            fabric.observe(eot)
            spi.regs.reg("CTRL").write(1)
            simulator.step(200)
            outcomes[dense] = (
                [sram.peek(4 * word) for word in range(5)],
                channel.words_moved,
                fabric.line(eot).pulse_count,
                pulses,
                simulator.activity.as_dict(),
            )
            if not dense:
                stats = simulator.kernel_stats
        assert outcomes[True] == outcomes[False]
        # Four words, one every 5 cycles; the eot pulse lands with the last
        # one at cycle 19 and the span that follows runs to the horizon.
        assert outcomes[False][:4] == ([0, 1, 2, 3, 0], 4, 1, [19])
        # One dense tick per word: no tick is spent retiring a write.
        assert stats["dense_ticks"] == 4
        assert stats["dense_ticks"] + stats["cycles_skipped"] == 200

    def test_the_dma_ticks_once_per_word_on_smoke(self, monkeypatch):
        moved_per_tick = []
        tick = MicroDma.tick

        def counting(self, cycle):
            before = self.total_words_moved
            tick(self, cycle)
            moved_per_tick.append(self.total_words_moved - before)

        monkeypatch.setattr(MicroDma, "tick", counting)
        execute_campaign(campaign("smoke"))
        assert moved_per_tick and set(moved_per_tick) == {1}


def _response(request):
    """``(rdata, completion cycle)``, or None while the request is open."""
    response = request.response
    return None if response is None else (response.rdata, response.completed_cycle)


def _dma_system(dense):
    """SPI → µDMA → SRAM, plus a neighbour that keeps every tick dense, so
    the µDMA owes the ticks it is not due for."""
    simulator = Simulator(dense=dense)
    sram = SramBank("sram", size_bytes=256)
    interconnect = SystemInterconnect("soc_interconnect")
    interconnect.attach_memory(0x1000, 256, sram)
    spi = SpiController("spi", sensor=SyntheticSensor(waveform=SensorWaveform(kind="ramp")), cycles_per_word=5)
    spi.regs.reg("LEN").write(3)
    udma = MicroDma("udma", interconnect=interconnect)
    channel = udma.add_channel(source=spi, destination_address=0x1000, length_words=3)
    for component in (spi, udma, _Busy(), interconnect, sram):
        simulator.add_component(component)
    return simulator, spi, udma, channel, sram


def _irq_system(dense):
    """A timer whose overflow every 50 cycles (from cycle 49) raises
    interrupt 3 on a sleeping core."""
    simulator = Simulator(dense=dense)
    fabric = EventFabric()
    timer = Timer("timer", compare=50)
    timer.connect_events(fabric)
    irq = InterruptController("irq_ctrl", fabric=fabric)
    irq.enable_line(timer.event_line_name("overflow"), 3)
    core = IbexCore("ibex", irq_controller=irq)
    for component in (timer, _FabricCloser(fabric), irq, core):
        simulator.add_component(component)
    timer.start()
    return simulator, core, irq


class _Hook(Component):
    """Runs ``action`` from its own tick at local cycle ``at``: another
    component touching its target from inside the simulation."""

    def __init__(self, at, action):
        super().__init__(f"hook{at}")
        self._at = at
        self._action = action

    def tick(self, cycle):
        if cycle == self._at:
            self._action()

    def next_event(self):
        remaining = self._at - self.simulator.current_cycle
        return remaining + 1 if remaining >= 0 else None


class _Busy(Component):
    """Always due: every tick is a dense tick."""

    def __init__(self):
        super().__init__("busy")

    def tick(self, cycle):
        pass

    def next_event(self):
        return 1


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
        remaining = self._at - self.simulator.current_cycle
        return remaining + 1 if remaining >= 0 else None


class _FabricCloser(Component):
    def __init__(self, fabric):
        super().__init__("closer")
        self._fabric = fabric

    def tick(self, cycle):
        self._fabric.end_cycle()

    def next_event(self):
        return 1 if self._fabric.active_mask() else None
