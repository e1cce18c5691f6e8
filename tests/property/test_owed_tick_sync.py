"""Differential property test for owed ticks and their sync points.

In event-driven stepping a wake-cached peripheral that is not due owes its
ticks instead of running them, and pays them back with one ``skip`` when
something touches it.  This test interleaves random ``step`` chunks with
every kind of touch on the counting peripherals (timer, watchdog, PWM):

* CPU-side APB loads and stores of their ``COUNT``/``CTRL`` registers,
  posted on the SoC interconnect and completing mid-step;
* an Ibex interrupt handler, raised by the SPI or µDMA end of transfer or
  the timer overflow, that loads and stores peripheral registers and SRAM
  (the interrupt latch wakes the sleeping core, its accesses wake both bus
  fabrics), with the handler installed up front or only between later
  operations, while its interrupt may already be pending;
* PELS ``capture`` of a counting ``COUNT`` and PELS event inputs into idle
  peripherals, from a link triggered by the SPI end of transfer;
* µDMA pops of the SPI's RX FIFO mid-run;
* PELS configuration writes that observe or unobserve the timer's overflow
  line (the producer's horizon flips while it owes ticks);
* blocking driver reads and writes (PELS enable and trigger mask), which
  end in ``run_until``;
* snapshots taken inside :class:`~repro.sim.batch.BatchSimulator` stop
  callbacks.

Dense, event-driven (untraced and traced, which step through different
loops) and batched runs must agree at every boundary: registers, the full
activity map, traces and the PELS capture registers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.transaction import BusRequest, TransferKind
from repro.core.assembler import Assembler
from repro.core.pels import (
    GLOBAL_ENABLE_BIT,
    LINK_REG_CAPTURE,
    LINK_REG_MASK,
    LINK_WINDOW_BASE,
    LINK_WINDOW_STRIDE,
    REG_GLOBAL_CTRL,
)
from repro.cpu.instructions import Li, Load, Store
from repro.obs import tracing
from repro.sim.batch import BatchSimulator
from repro.soc.pulpissimo import SocConfig, build_soc
from repro.software.driver import PelsDriver

PERIPHERALS = ("spi", "adc", "gpio", "uart", "i2c", "pwm", "wdt", "timer")
LOADS = tuple(
    (peripheral, register)
    for peripheral in ("timer", "wdt", "pwm")
    for register in ("COUNT", "CTRL")
)
# (peripheral, register, values): what a store may write.
STORES = (
    ("timer", "COUNT", st.integers(min_value=0, max_value=40)),
    ("timer", "CTRL", st.sampled_from([0, 1, 3])),
    ("wdt", "CTRL", st.sampled_from([0, 1])),
    ("wdt", "KICK", st.just(1)),
    ("pwm", "CTRL", st.sampled_from([0, 1])),
    ("spi", "CTRL", st.just(1)),
)

operation = st.one_of(
    st.tuples(st.just("step"), st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=3)),
    st.tuples(st.just("load"), st.sampled_from(LOADS)),
    st.one_of(
        *(
            st.tuples(st.just("store"), st.just((peripheral, register)), values)
            for peripheral, register, values in STORES
        )
    ),
    st.tuples(st.just("observe"), st.booleans()),
    st.tuples(st.just("driver_read"), st.sampled_from([0, 1])),
    st.tuples(st.just("driver_write"), st.sampled_from(["observe", "unobserve", "disable", "enable"])),
)

IRQ = 5

scenario = st.fixed_dictionaries(
    {
        # Short periods put overflows inside the few ticks a timer owes
        # when a bus access lands early in a step.
        "timer_compare": st.integers(min_value=2, max_value=8) | st.integers(min_value=20, max_value=120),
        "wdt_timeout": st.integers(min_value=60, max_value=400),
        "pwm_period": st.integers(min_value=8, max_value=80),
        # The line that raises the core's interrupt (None: the core sleeps).
        "irq_line": st.sampled_from([None, "spi_eot", "dma_eot", "timer_overflow"]),
        # The handler is installed before this operation (after the last
        # one when there are fewer), so its interrupt may already pend.
        "isr_at": st.integers(min_value=0, max_value=3),
        "operations": st.lists(operation, min_size=1, max_size=10),
    }
)


def _build(params, dense):
    soc = build_soc(SocConfig(spi_cycles_per_word=3, dense=dense))
    pels = soc.pels
    assembler = Assembler()
    fabric = soc.fabric
    spi_eot = 1 << fabric.index_of(soc.spi.event_line_name("eot"))
    pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.pwm, port="update")
    pels.route_action_to_peripheral(group=0, bit=1, peripheral=soc.wdt, port="kick")
    count = soc.wdt.regs.offset_of("COUNT") // 4
    # Link 0 waits for an "observe" write of its trigger mask; link 1 follows
    # every SPI transfer.  Both capture a counting COUNT and poke a peripheral.
    pels.program_link(
        0,
        assembler.assemble(f"capture {count} 0xFFFF\naction 0 0x1\nend"),
        trigger_mask=0,
        base_address=soc.address_map.peripheral_base("wdt"),
    )
    pels.program_link(
        1,
        assembler.assemble(f"capture {count} 0xFFFF\naction 0 0x2\nend"),
        trigger_mask=spi_eot,
        base_address=soc.address_map.peripheral_base("pwm"),
    )
    soc.spi.regs.reg("LEN").hw_write(2)
    channel = soc.udma.add_channel(
        source=soc.spi, destination_address=soc.address_map.sram_base + 0x200, length_words=2
    )
    irq_line = {
        None: None,
        "spi_eot": soc.spi.event_line_name("eot"),
        "dma_eot": soc.udma.channel_event_line(channel),
        "timer_overflow": soc.timer.event_line_name("overflow"),
    }[params["irq_line"]]
    if irq_line is not None:
        soc.irq_controller.enable_line(irq_line, IRQ)
    soc.pwm.regs.reg("PERIOD").hw_write(params["pwm_period"])
    soc.pwm.start()
    soc.wdt.regs.reg("TIMEOUT").hw_write(params["wdt_timeout"])
    soc.wdt.start()
    soc.timer.regs.reg("COMPARE").hw_write(params["timer_compare"])
    soc.timer.start()
    return soc


def _install_isr(soc):
    """A handler that reads a counting ``COUNT`` and a word the µDMA wrote,
    kicks the watchdog and stores the count to SRAM: every access crosses
    the SoC interconnect, the peripheral ones the APB bus too."""
    sram = soc.address_map.sram_base
    soc.cpu.register_isr(
        IRQ,
        [
            Li("t0", 1),
            Load("t1", soc.register_address("timer", "COUNT")),
            Store("t0", soc.register_address("wdt", "KICK")),
            Load("t2", sram + 0x200),
            Store("t1", sram + 0x300),
        ],
    )


def _snapshot(soc):
    cpu = soc.cpu
    return (
        soc.simulator.current_cycle,
        {
            name: {register.name: register.value for register in getattr(soc, name).regs.registers()}
            for name in PERIPHERALS
        },
        soc.activity.as_dict(),
        soc.simulator.traces.merged_timeline(),
        tuple(link.execution.capture_register for link in soc.pels.links),
        soc.fabric.total_pulses,
        soc.timer.overflow_count,
        soc.wdt.kicks,
        (cpu.state, dict(cpu.registers), cpu.interrupts_serviced, cpu.last_interrupt_cycle, cpu.sleep_cycles),
        soc.sram.peek(0x300),
    )


def _advance(soc, chunks, batched, snapshots):
    if not batched:
        for chunk in chunks:
            soc.simulator.step(chunk)
            snapshots.append(_snapshot(soc))
        return
    batch = BatchSimulator()
    stops, elapsed = [], 0
    for chunk in chunks:
        elapsed += chunk
        stops.append((elapsed, lambda _cycles: snapshots.append(_snapshot(soc))))
    batch.add(soc.simulator, stops)
    batch.run()


def _run(params, mode):
    soc = _build(params, dense=mode == "dense")
    driver = PelsDriver(soc)
    timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
    pels_base = soc.address_map.peripheral_base("pels")
    requests, reads, snapshots = [], [], []

    def post(kind, address, value=0):
        request = BusRequest(master="ibex", kind=kind, address=address, wdata=value)
        soc.interconnect.submit(request)
        requests.append(request)

    for index, op in enumerate(params["operations"]):
        if index == params["isr_at"]:
            _install_isr(soc)
        kind = op[0]
        if kind == "step":
            _advance(soc, op[1], mode == "batched", snapshots)
        elif kind == "load":
            post(TransferKind.READ, soc.register_address(*op[1]))
        elif kind == "store":
            post(TransferKind.WRITE, soc.register_address(*op[1]), op[2])
        elif kind == "observe":
            mask = timer_bit if op[1] else 0
            post(TransferKind.WRITE, pels_base + LINK_WINDOW_BASE + LINK_REG_MASK, mask)
        elif kind == "driver_write":
            offset, value = {
                "observe": (LINK_WINDOW_BASE + LINK_REG_MASK, timer_bit),
                "unobserve": (LINK_WINDOW_BASE + LINK_REG_MASK, 0),
                "disable": (REG_GLOBAL_CTRL, 0),
                "enable": (REG_GLOBAL_CTRL, GLOBAL_ENABLE_BIT),
            }[op[1]]
            driver.write_reg(offset, value)
            snapshots.append(_snapshot(soc))
        else:
            offset = LINK_WINDOW_BASE + op[1] * LINK_WINDOW_STRIDE + LINK_REG_CAPTURE
            reads.append(driver.read_reg(offset))
            snapshots.append(_snapshot(soc))
    if params["isr_at"] >= len(params["operations"]):
        _install_isr(soc)
    _advance(soc, [200], mode == "batched", snapshots)
    responses = [request.response for request in requests]
    return snapshots, responses, reads


class TestOwedTickSyncPoints:
    @settings(max_examples=150, deadline=None)
    @given(params=scenario)
    def test_dense_event_and_batched_agree_at_every_boundary(self, params):
        dense = _run(params, "dense")
        assert _run(params, "event") == dense
        with tracing.capture():
            assert _run(params, "event") == dense
        assert _run(params, "batched") == dense
