"""Tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim.component import Component
from repro.sim.simulator import SimulationError, Simulator


class CycleCounter(Component):
    """Minimal component that counts its own ticks."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.ticks = 0
        self.seen_cycles = []

    def tick(self, cycle):
        self.ticks += 1
        self.seen_cycles.append(cycle)

    def reset(self):
        self.ticks = 0
        self.seen_cycles = []


class TestSimulatorBasics:
    def test_step_ticks_components(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        simulator.step(10)
        assert counter.ticks == 10
        assert simulator.current_cycle == 10

    def test_component_sees_domain_local_cycles(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        simulator.step(3)
        assert counter.seen_cycles == [0, 1, 2]

    def test_duplicate_component_name_rejected(self):
        simulator = Simulator()
        simulator.add_component(CycleCounter("x"))
        with pytest.raises(SimulationError):
            simulator.add_component(CycleCounter("x"))

    def test_component_lookup(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter("x"))
        assert simulator.component("x") is counter
        with pytest.raises(SimulationError):
            simulator.component("missing")

    def test_negative_step_rejected(self):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.step(-1)

    def test_run_until(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        elapsed = simulator.run_until(lambda: counter.ticks >= 5, max_cycles=100)
        assert elapsed == 5

    def test_run_until_timeout(self):
        simulator = Simulator()
        simulator.add_component(CycleCounter())
        with pytest.raises(SimulationError):
            simulator.run_until(lambda: False, max_cycles=10, label="never")

    def test_reset_clears_everything(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        simulator.step(5)
        simulator.activity.add("x", "y", 3)
        simulator.reset()
        assert simulator.current_cycle == 0
        assert counter.ticks == 0
        assert simulator.activity.get("x", "y") == 0


class Pulse(Component):
    """Wakes every ``period`` cycles and records the cycle each tick receives
    next to the simulator's own ``current_cycle`` at that tick."""

    def __init__(self, period, cacheable=False):
        super().__init__("pulse")
        self.period = period
        self.wake_cacheable = cacheable
        self.reset()

    def tick(self, cycle):
        self.seen.append((cycle, self.simulator.current_cycle))
        self.countdown -= 1
        if self.countdown == 0:
            self.countdown = self.period
            self.fired.append(cycle)

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles

    def reset(self):
        self.countdown = self.period
        self.seen = []
        self.fired = []


class TestOneTimeBase:
    """The base tick is the only time base: ``tick`` receives it."""

    @pytest.mark.parametrize("cacheable", [False, True], ids=["volatile", "cached"])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "event"])
    def test_tick_cycle_is_the_current_cycle(self, dense, cacheable):
        simulator = Simulator(dense=dense)
        pulse = simulator.add_component(Pulse(7, cacheable))
        simulator.step(30)
        assert pulse.seen and all(cycle == now for cycle, now in pulse.seen)
        assert pulse.fired == [6, 13, 20, 27]
        if dense:
            assert [cycle for cycle, _ in pulse.seen] == list(range(30))
        else:
            assert [cycle for cycle, _ in pulse.seen] == pulse.fired
        assert simulator.current_cycle == 30

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "event"])
    def test_run_until_ticks_at_the_current_cycle(self, dense):
        simulator = Simulator(dense=dense)
        pulse = simulator.add_component(Pulse(5))
        elapsed = simulator.run_until(lambda: len(pulse.fired) == 3, max_cycles=100)
        assert elapsed == 15
        assert pulse.fired == [4, 9, 14]
        assert all(cycle == now for cycle, now in pulse.seen)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "event"])
    def test_count_starts_again_at_zero_after_reset(self, dense):
        simulator = Simulator(dense=dense)
        pulse = simulator.add_component(Pulse(4))
        simulator.step(10)
        simulator.reset()
        assert simulator.current_cycle == 0
        assert pulse.seen == []
        simulator.step(10)
        assert pulse.fired == [3, 7]
        assert all(cycle == now for cycle, now in pulse.seen)
        assert pulse.seen[0][0] == (0 if dense else 3)


class TestComponentActivity:
    def test_record_before_attach_is_preserved(self):
        counter = CycleCounter()
        counter.record("early", 2)
        simulator = Simulator()
        simulator.add_component(counter)
        assert simulator.activity.get("counter", "early") == 2

    def test_record_after_attach_goes_to_simulator(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        counter.record("late", 5)
        assert simulator.activity.get("counter", "late") == 5

    def test_double_attach_rejected(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        other = Simulator()
        with pytest.raises(RuntimeError):
            other.add_component(counter)

    def test_unattached_component_properties_raise(self):
        counter = CycleCounter()
        with pytest.raises(RuntimeError):
            _ = counter.simulator

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CycleCounter("")

    def test_trace_records_at_current_cycle(self):
        simulator = Simulator()
        simulator.add_component(CycleCounter())
        simulator.step(4)
        simulator.trace("signal", 1)
        trace = simulator.traces.trace("signal")
        assert trace.changes()[0].cycle == 4
