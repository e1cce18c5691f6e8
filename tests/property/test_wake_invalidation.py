"""Differential property test for the cached wake-horizon scheduler.

The deadline cache claims cycle-exactness under *arbitrary interleavings* of
stepping and wake-moving mutations: every register write, software helper,
and event input must invalidate exactly enough for the cached kernel to stay
equal to dense stepping.  These tests drive randomized mutation/step
sequences through the dense kernel and the event-driven kernel, whose
wake-cacheable peripherals keep their horizons in the deadline cache, and
require identical observable state from both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.peripherals.pwm import Pwm
from repro.peripherals.timer import Timer
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog
from repro.sim.simulator import Simulator
from repro.soc.pulpissimo import SocConfig, build_soc

# One mutation op: (target, op, value).  Values are scaled into a sane range
# per op when applied.
mutation = st.tuples(
    st.sampled_from(
        [
            "timer_compare",
            "timer_prescaler",
            "timer_start",
            "timer_stop",
            "wdt_kick",
            "wdt_start",
            "wdt_timeout",
            "pwm_period",
            "pwm_shadow",
            "pwm_start",
            "pwm_stop",
            "uart_tx",
            "step",
        ]
    ),
    st.integers(min_value=1, max_value=300),
)

sequence = st.lists(mutation, min_size=1, max_size=30)


def _apply(soc_like, op, value):
    timer, wdt, pwm, uart, simulator = soc_like
    if op == "timer_compare":
        timer.regs.reg("COMPARE").write(value)
    elif op == "timer_prescaler":
        timer.regs.reg("PRESCALER").write(value % 4)
    elif op == "timer_start":
        timer.start()
    elif op == "timer_stop":
        timer.stop()
    elif op == "wdt_kick":
        wdt.kick()
    elif op == "wdt_start":
        wdt.start()
    elif op == "wdt_timeout":
        wdt.regs.reg("TIMEOUT").write(value + 10)
    elif op == "pwm_period":
        pwm.regs.reg("PERIOD").write(value)
    elif op == "pwm_shadow":
        pwm.regs.reg("DUTY_SHADOW").write(value % 64)
    elif op == "pwm_start":
        pwm.start()
    elif op == "pwm_stop":
        pwm.stop()
    elif op == "uart_tx":
        uart.regs.reg("TXDATA").write(value & 0xFF)
    elif op == "step":
        simulator.step(value)


def _run_bare(ops, dense):
    simulator = Simulator(dense=dense)
    timer = Timer(compare=97)
    wdt = Watchdog(timeout=450, grace=40)
    pwm = Pwm(period=33, duty=11)
    uart = Uart(cycles_per_byte=7)
    for component in (timer, wdt, pwm, uart):
        simulator.add_component(component)
    parts = (timer, wdt, pwm, uart, simulator)
    for op, value in ops:
        _apply(parts, op, value)
    simulator.step(500)
    return parts


def _state(parts):
    timer, wdt, pwm, uart, simulator = parts
    return {
        "cycle": simulator.current_cycle,
        "regs": {
            block.name: {register.name: register.value for register in block.regs.registers()}
            for block in (timer, wdt, pwm, uart)
        },
        "timer_overflows": timer.overflow_count,
        "wdt": (wdt.kicks, wdt.barks, wdt.bites),
        "pwm": (pwm.periods_elapsed, pwm.duty_updates, pwm.output_high_cycles),
        "uart_tx": list(uart.transmitted),
        "activity": simulator.activity.as_dict(),
    }


class TestBareKernelInvalidation:
    @settings(max_examples=60, deadline=None)
    @given(ops=sequence)
    def test_cached_kernel_equals_dense(self, ops):
        dense = _state(_run_bare(ops, dense=True))
        cached = _state(_run_bare(ops, dense=False))
        assert cached == dense


soc_sequence = st.lists(mutation, min_size=1, max_size=15)


class TestSocKernelInvalidation:
    @settings(max_examples=15, deadline=None)
    @given(ops=soc_sequence)
    def test_cached_kernel_equals_dense_inside_the_soc(self, ops):
        """Same property through the full SoC: invalidations must also flow
        from bus writes, PELS action routing, and the consumer-aware fabric
        (the PWM/timer lines are unobserved here, so multi-period skip
        replays are exercised too)."""
        states = []
        for dense in (True, False):
            soc = build_soc(SocConfig(dense=dense))
            parts = (soc.timer, soc.wdt, soc.pwm, soc.uart, soc.simulator)
            for op, value in ops:
                _apply(parts, op, value)
            soc.run(700)
            states.append(_state(parts))
        dense_state, event_state = states
        assert event_state == dense_state
