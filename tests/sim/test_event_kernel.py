"""Tests for the event-driven scheduling kernel (wake protocol + skipping)."""

import pytest

from repro.peripherals.pwm import Pwm
from repro.peripherals.timer import Timer
from repro.peripherals.watchdog import Watchdog
from repro.sim.component import Component
from repro.sim.simulator import SimulationError, Simulator


class DenseCounter(Component):
    """Ticks every cycle and gives no wake hint: forces dense stepping."""

    def __init__(self, name="dense_counter"):
        super().__init__(name)
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1


class HintedBlinker(Component):
    """Pulses every ``period`` cycles and advertises the gap as skippable."""

    def __init__(self, period, name="blinker"):
        super().__init__(name)
        self.period = period
        self.countdown = period
        self.tick_calls = 0
        self.skipped_cycles = 0
        self.pulses = 0

    def tick(self, cycle):
        self.tick_calls += 1
        self.countdown -= 1
        if self.countdown == 0:
            self.pulses += 1
            self.countdown = self.period
            self.record("pulses")
        self.record("cycles")

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.skipped_cycles += cycles
        self.countdown -= cycles
        self.record("cycles", cycles)


class PassiveBlock(Component):
    """Never overrides tick: trivially idle."""


class TestWakeProtocolDefaults:
    def test_tick_overriding_component_defaults_to_every_cycle(self):
        assert DenseCounter().next_event() == 1

    def test_passive_component_defaults_to_no_wake(self):
        assert PassiveBlock("p").next_event() is None

    def test_default_skip_is_a_no_op(self):
        block = PassiveBlock("p")
        block.skip(100)  # must not raise or change anything observable


class TestQuiescenceSkipping:
    def test_hinted_component_is_ticked_only_at_wakes(self):
        simulator = Simulator()
        blinker = simulator.add_component(HintedBlinker(period=50))
        simulator.step(500)
        assert blinker.pulses == 10
        assert simulator.current_cycle == 500
        # One real tick per pulse; everything else was skipped in batches.
        assert blinker.tick_calls == 10
        assert blinker.skipped_cycles == 490

    def test_skipped_activity_matches_dense(self):
        results = []
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            simulator.add_component(HintedBlinker(period=7))
            simulator.step(100)
            results.append(simulator.activity.as_dict())
        assert results[0] == results[1]

    def test_instance_assigned_tick_is_still_simulated(self):
        # Test doubles often monkey-patch tick on the instance rather than
        # subclassing; that must force dense stepping and be called per cycle
        # in both modes, as iterating the raw component list always did.
        for dense in (True, False):
            simulator = Simulator(dense=dense)
            component = PassiveBlock("patched")
            calls = []
            component.tick = calls.append  # instance attribute, not a subclass
            simulator.add_component(component)
            simulator.add_component(HintedBlinker(period=50))
            simulator.step(20)
            assert len(calls) == 20, f"dense={dense}"
            assert component.next_event() == 1

    def test_tick_patched_after_registration_is_picked_up(self):
        simulator = Simulator()
        component = simulator.add_component(PassiveBlock("late_patch"))
        simulator.add_component(HintedBlinker(period=50))
        simulator.step(10)
        calls = []
        component.tick = calls.append
        simulator.step(10)
        assert len(calls) == 10

    def test_dense_forcing_component_disables_skipping(self):
        simulator = Simulator()
        counter = simulator.add_component(DenseCounter())
        blinker = simulator.add_component(HintedBlinker(period=50))
        simulator.step(200)
        assert counter.ticks == 200
        assert blinker.tick_calls == 200
        assert blinker.skipped_cycles == 0

    def test_step_chunking_does_not_change_state(self):
        one_shot = Simulator()
        chunked = Simulator()
        a = one_shot.add_component(HintedBlinker(period=13))
        b = chunked.add_component(HintedBlinker(period=13))
        one_shot.step(400)
        for chunk in (1, 7, 100, 292):
            chunked.step(chunk)
        assert one_shot.current_cycle == chunked.current_cycle == 400
        assert a.pulses == b.pulses
        assert a.countdown == b.countdown

    def test_dense_flag_can_be_toggled_mid_run(self):
        simulator = Simulator()
        blinker = simulator.add_component(HintedBlinker(period=10))
        simulator.step(35)
        simulator.dense = True
        simulator.step(35)
        assert blinker.pulses == 7
        assert simulator.current_cycle == 70


class TestSocComponentHints:
    def test_disabled_peripherals_are_idle(self):
        assert Timer().next_event() is None
        assert Watchdog().next_event() is None
        assert Pwm().next_event() is None

    def test_timer_overflow_cycle_is_exact(self):
        for prescaler, compare in ((0, 10), (3, 5), (7, 1)):
            dense_sim, event_sim = Simulator(dense=True), Simulator()
            timers = []
            for simulator in (dense_sim, event_sim):
                timer = Timer(compare=compare)
                timer.regs.reg("PRESCALER").hw_write(prescaler)
                simulator.add_component(timer)
                timer.start()
                timers.append(timer)
            for simulator in (dense_sim, event_sim):
                simulator.step(200)
            dense_timer, event_timer = timers
            assert dense_timer.overflow_count == event_timer.overflow_count
            assert dense_timer.regs.reg("COUNT").value == event_timer.regs.reg("COUNT").value
            assert dense_sim.activity.as_dict() == event_sim.activity.as_dict()

    def test_timer_wake_hint_is_tight(self):
        timer = Timer(compare=10)
        Simulator().add_component(timer)
        timer.start()
        # Fresh timer, no prescaler: overflow pulses on the 10th tick.
        assert timer.next_event() == 10

    def test_watchdog_bark_cycle_is_exact(self):
        dense_sim, event_sim = Simulator(dense=True), Simulator()
        dogs = []
        for simulator in (dense_sim, event_sim):
            wdt = Watchdog(timeout=40, grace=10)
            simulator.add_component(wdt)
            wdt.start()
            dogs.append(wdt)
            simulator.run_until(lambda wdt=wdt: wdt.barked, max_cycles=100)
        assert dense_sim.current_cycle == event_sim.current_cycle
        assert dense_sim.activity.as_dict() == event_sim.activity.as_dict()

    def test_pwm_output_high_cycles_survive_skipping(self):
        dense_sim, event_sim = Simulator(dense=True), Simulator()
        pwms = []
        for simulator in (dense_sim, event_sim):
            pwm = Pwm(period=32, duty=12)
            simulator.add_component(pwm)
            pwm.start()
            pwms.append(pwm)
            simulator.step(101)
        assert pwms[0].output_high_cycles == pwms[1].output_high_cycles
        assert pwms[0].periods_elapsed == pwms[1].periods_elapsed
        assert pwms[0].regs.reg("COUNT").value == pwms[1].regs.reg("COUNT").value


class TestRunUntilEventDriven:
    def test_event_condition_is_detected_on_the_exact_cycle(self):
        dense_sim, event_sim = Simulator(dense=True), Simulator()
        elapsed = []
        for simulator in (dense_sim, event_sim):
            timer = Timer(compare=33)
            simulator.add_component(timer)
            timer.start()
            elapsed.append(
                simulator.run_until(lambda timer=timer: timer.overflow_count >= 3, max_cycles=1000)
            )
        assert elapsed[0] == elapsed[1] == 99

    def test_timeout_is_exact_under_skipping(self):
        simulator = Simulator()
        simulator.add_component(Timer())  # disabled: fully idle system
        with pytest.raises(SimulationError):
            simulator.run_until(lambda: False, max_cycles=10, label="never")
        assert simulator.current_cycle == 10


class TestSatelliteFixes:
    def test_reset_clears_traces_in_place(self):
        simulator = Simulator()
        held_reference = simulator.traces
        simulator.trace("sig", 1)
        simulator.reset()
        assert simulator.traces is held_reference
        assert len(held_reference) == 0
        simulator.trace("sig", 2)
        # The pre-reset reference observes post-reset recordings.
        assert held_reference.trace("sig").changes()[0].value == 2
