"""Tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim.component import Component
from repro.sim.simulator import SimulationError, Simulator, build_simulator


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

    def test_run_for_time(self):
        simulator = Simulator(default_frequency_hz=1e6)
        counter = simulator.add_component(CycleCounter())
        cycles = simulator.run_for_time(10e-6)
        assert cycles == 10
        assert counter.ticks == 10

    def test_reset_clears_everything(self):
        simulator = Simulator()
        counter = simulator.add_component(CycleCounter())
        simulator.step(5)
        simulator.activity.add("x", "y", 3)
        simulator.reset()
        assert simulator.current_cycle == 0
        assert counter.ticks == 0
        assert simulator.activity.get("x", "y") == 0

    def test_build_simulator_helper(self):
        counter = CycleCounter()
        simulator = build_simulator(10e6, [counter])
        assert counter.is_attached
        assert simulator.default_domain.frequency_hz == 10e6


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
        with pytest.raises(RuntimeError):
            _ = counter.clock

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
