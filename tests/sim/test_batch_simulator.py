"""Kernel-level tests for batched multi-instance execution.

Covers the two halves of the per-instance kernel:

* per-instance classification — simulators of identical topology each
  bind the same classification from equal fingerprints, and per-instance
  mutation (deadline heaps, volatile-list reordering) never leaks across
  instances;
* :class:`repro.sim.BatchSimulator` — N instances run one after another,
  in enrollment order, end in exactly the state of N standalone runs, and
  mid-run stops observe exactly the state a standalone run of that horizon
  would have finished in.
"""

import pytest

from repro.sim import BatchSimulator, SimulationError, Simulator
from repro.sim.component import Component


class Blinker(Component):
    """Cacheable periodic pulse counter (the wake-cache test workhorse)."""

    wake_cacheable = True

    def __init__(self, period, name="blinker"):
        super().__init__(name)
        self.period = period
        self.countdown = period
        self.pulses = 0
        self.idle_cycles = 0

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.pulses += 1
            self.countdown = self.period

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles
        self.idle_cycles += cycles


def _build(periods):
    simulator = Simulator()
    blinkers = [
        simulator.add_component(Blinker(period, name=f"b{i}")) for i, period in enumerate(periods)
    ]
    return simulator, blinkers


class TestPlanSharing:
    def test_same_topology_shares_one_plan(self):
        sim_a, _ = _build([7, 1000])
        sim_b, _ = _build([13, 500])  # different parameters, same structure
        sim_a.step(10)
        sim_b.step(10)
        # Equal fingerprints classify identically, but each simulator binds
        # its own lists of its own components.
        assert sim_a._fingerprint == sim_b._fingerprint
        assert [c.name for c in sim_a.state.cached] == [c.name for c in sim_b.state.cached]
        assert sim_a.state.cached[0] is not sim_b.state.cached[0]
        assert sim_a.kernel_stats["plan_builds"] == 1
        assert sim_b.kernel_stats["plan_builds"] == 1

    def test_fresh_topology_builds_fresh_plan(self):
        class Unique(Blinker):  # a type no other simulator has bound
            pass

        simulator = Simulator()
        simulator.add_component(Unique(5))
        simulator.step(10)
        assert simulator.kernel_stats["plan_builds"] == 1

    def test_shared_plan_is_immutable_across_instances(self):
        sim_a, (a,) = _build([10])
        sim_b, (b,) = _build([10])
        sim_a.step(95)
        sim_b.step(25)
        # Independent per-instance state.
        assert (a.pulses, b.pulses) == (9, 2)
        assert sim_a.current_cycle == 95
        assert sim_b.current_cycle == 25

    def test_wake_cacheable_toggle_selects_a_different_plan(self):
        sim_a, (a,) = _build([10])
        sim_a.step(5)
        assert len(sim_a.state.cached) == 1
        a.wake_cacheable = False  # the instance's own escape hatch
        sim_a.step(5)
        assert (len(sim_a.state.cached), len(sim_a.state.volatile)) == (0, 1)
        assert sim_a.kernel_stats["plan_builds"] == 2


class TestBatchSimulator:
    def test_batched_instances_match_standalone_runs(self):
        # Heterogeneous periods and horizons: every instance must end in
        # exactly the state of its own standalone run.
        configs = [([7, 50], 1_000), ([13, 990], 2_500), ([1, 3], 311)]
        solo = []
        for periods, horizon in configs:
            simulator, blinkers = _build(periods)
            simulator.step(horizon)
            solo.append([(b.pulses, b.idle_cycles, b.countdown) for b in blinkers])

        batch = BatchSimulator()
        batched_states = []
        for periods, horizon in configs:
            simulator, blinkers = _build(periods)
            batched_states.append(blinkers)
            batch.add(simulator, [(horizon, lambda elapsed: None)])
        batch.run()
        batched = [
            [(b.pulses, b.idle_cycles, b.countdown) for b in blinkers]
            for blinkers in batched_states
        ]
        assert batched == solo

    def test_stops_observe_the_exact_standalone_state(self):
        # A stop at cycle k must see the state a standalone step(k) produces,
        # even though the instance keeps running to a larger horizon.
        stops_at = [311, 1_000, 2_048]
        solo_states = []
        for horizon in stops_at:
            simulator, (blinker,) = _build([7])
            simulator.step(horizon)
            solo_states.append((blinker.pulses, blinker.idle_cycles, blinker.countdown))

        simulator, (blinker,) = _build([7])
        seen = {}

        def snapshot(elapsed):
            seen[elapsed] = (blinker.pulses, blinker.idle_cycles, blinker.countdown)

        batch = BatchSimulator()
        batch.add(simulator, [(cycles, snapshot) for cycles in stops_at])
        batch.run()
        assert [seen[cycles] for cycles in stops_at] == solo_states
        assert simulator.current_cycle == stops_at[-1]

    def test_dense_instances_are_supported(self):
        simulator, (blinker,) = _build([10])
        simulator.dense = True
        batch = BatchSimulator()
        batch.add(simulator, [(100, lambda elapsed: None)])
        batch.run()
        assert blinker.pulses == 10
        assert simulator.kernel_stats["dense_ticks"] == 100

    def test_instances_run_in_enrollment_order(self):
        # Every stop of an instance fires before any stop of the instance
        # enrolled after it; rounds count the boundary steps of all of them.
        batch = BatchSimulator()
        fired = []
        for index in range(3):
            simulator, _ = _build([10])
            stops = [(cycles, lambda elapsed, index=index: fired.append((index, elapsed))) for cycles in (300, 1_000)]
            batch.add(simulator, stops)
        batch.run()
        assert fired == [(index, cycles) for index in range(3) for cycles in (300, 1_000)]
        assert batch.rounds >= 3 * 100

    def test_stop_validation(self):
        simulator, _ = _build([10])
        batch = BatchSimulator()
        with pytest.raises(SimulationError, match="at least one stop"):
            batch.add(simulator, [])
        with pytest.raises(SimulationError, match="at least one cycle"):
            batch.add(simulator, [(0, lambda elapsed: None)])
        with pytest.raises(SimulationError, match="duplicate batch stop"):
            batch.add(simulator, [(5, lambda elapsed: None), (5, lambda elapsed: None)])

    def test_double_enrollment_is_rejected(self):
        simulator, _ = _build([10])
        batch = BatchSimulator()
        batch.add(simulator, [(10, lambda elapsed: None)])
        with pytest.raises(SimulationError, match="already enrolled"):
            batch.add(simulator, [(20, lambda elapsed: None)])

    def test_callback_advancing_the_simulator_is_detected(self):
        simulator, _ = _build([10])
        batch = BatchSimulator()
        batch.add(simulator, [(50, lambda elapsed: simulator.step(1))])
        with pytest.raises(SimulationError, match="advanced the simulator"):
            batch.run()


class Failing(Blinker):
    """A blinker whose tick raises on one cycle."""

    def __init__(self, period, fail_at):
        super().__init__(period)
        self.fail_at = fail_at

    def tick(self, cycle):
        if cycle == self.fail_at:
            raise RuntimeError(f"tick failed at cycle {cycle}")
        super().tick(cycle)


class TestBatchLoopBookkeeping:
    """``rounds`` and each instance's ``elapsed`` are exact on every exit of
    :meth:`BatchSimulator.run`, including when a round or a stop callback
    raises.  ``elapsed`` counts the cycles of the rounds that returned."""

    def test_multi_stop_batch_takes_the_pinned_rounds(self):
        batch = BatchSimulator()
        for periods, stops in (([7, 50], (311, 1_000, 2_048)), ([13, 990], (5, 2_500)), ([1, 3], (40, 311))):
            simulator, _ = _build(periods)
            batch.add(simulator, [(cycles, lambda elapsed: None) for cycles in stops])
        batch.run()
        assert batch.rounds == 836
        assert [instance.elapsed for instance in batch.instances] == [2_048, 2_500, 311]
        assert all(instance.done for instance in batch.instances)
        # A second run finds every instance done and takes no round.
        batch.run()
        assert batch.rounds == 836

    def test_a_callback_that_advances_the_simulator_leaves_exact_counts(self):
        simulator, _ = _build([10])
        batch = BatchSimulator()
        instance = batch.add(simulator, [(50, lambda elapsed: simulator.step(1)), (100, lambda elapsed: None)])
        with pytest.raises(SimulationError, match="advanced the simulator"):
            batch.run()
        assert (batch.rounds, instance.elapsed, instance.done) == (5, 50, False)
        assert simulator.current_cycle == 51

    def test_a_round_that_raises_leaves_exact_counts(self):
        simulator = Simulator()
        simulator.add_component(Failing(10, fail_at=69))
        batch = BatchSimulator()
        instance = batch.add(simulator, [(30, lambda elapsed: None), (100, lambda elapsed: None)])
        with pytest.raises(RuntimeError, match="tick failed at cycle 69"):
            batch.run()
        # The failing round skipped cycles 60..68 and raised in the dense
        # tick of cycle 69: it counts as a round but adds no elapsed cycles.
        assert (batch.rounds, instance.elapsed, instance.done) == (7, 60, False)
        assert simulator.current_cycle == 69
