"""Differential property test for the batch round loop (hypothesis).

For any mix of topologies, horizons, and dense/skipping instances,
:meth:`BatchSimulator.run` must agree with the dense cycle-by-cycle
reference on everything semantically observable (pulse counts, countdowns,
recorded activity) at every stop of every instance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BatchSimulator, Simulator
from repro.sim.component import Component


class Blinker(Component):
    """Cacheable periodic pulse counter that records its pulses."""

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
            self.record("pulse")
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


def _snapshot(blinkers):
    """The semantically observable state (valid across dense and skipping)."""
    return tuple((b.pulses, b.countdown) for b in blinkers)


def _run_batch(specs):
    """Run every (periods, stops, dense) spec through one BatchSimulator.

    Returns the interleaved observation log ``(instance, stop, snapshot)``
    in firing order plus the per-instance final state and activity counters.
    """
    batch = BatchSimulator()
    order = []
    sims = []
    for index, (periods, stops, dense) in enumerate(specs):
        simulator, blinkers = _build(periods)
        simulator.dense = dense
        sims.append((simulator, blinkers))

        def observe(elapsed, index=index, blinkers=blinkers):
            order.append((index, elapsed, _snapshot(blinkers)))

        batch.add(simulator, [(cycles, observe) for cycles in stops])
    batch.run()
    finals = [
        (_snapshot(blinkers), dict(simulator.activity.as_dict()))
        for simulator, blinkers in sims
    ]
    return order, finals


def _run_dense_reference(spec):
    """One instance stepped cycle by cycle (dense) through its stops."""
    periods, stops, _ = spec
    simulator, blinkers = _build(periods)
    simulator.dense = True
    observations = []
    elapsed = 0
    for cycles in sorted(stops):
        simulator.step(cycles - elapsed)
        elapsed = cycles
        observations.append((cycles, _snapshot(blinkers)))
    return observations, dict(simulator.activity.as_dict())


instance_specs = st.tuples(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=1_200), min_size=1, max_size=4, unique=True),
    st.booleans(),
)
batch_specs = st.lists(instance_specs, min_size=1, max_size=4)


class TestBackendDifferential:
    @settings(max_examples=40, deadline=None)
    @given(batch_specs)
    def test_backends_match_the_dense_reference(self, specs):
        order, finals = _run_batch(specs)
        for index, spec in enumerate(specs):
            dense_observations, dense_activity = _run_dense_reference(spec)
            observations = [
                (stop, snapshot) for instance, stop, snapshot in order if instance == index
            ]
            assert observations == dense_observations
            final_snapshot, activity = finals[index]
            assert final_snapshot == dense_observations[-1][1]
            assert activity == dense_activity


class TestAdvanceSpanContract:
    """Every batch round advances its instance: ``advance_span(limit)``
    returns a value in ``[1, limit]`` and moves the clock by exactly that."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20),
        st.booleans(),
    )
    def test_advance_span_returns_a_value_in_one_to_limit(self, periods, limits, dense):
        simulator, _ = _build(periods)
        state = simulator._schedule_plan()
        for limit in limits:
            before = simulator.current_cycle
            advanced = state.advance_span(limit, dense)
            assert 1 <= advanced <= limit
            assert simulator.current_cycle - before == advanced
