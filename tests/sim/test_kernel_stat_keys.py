"""One canonical kernel_stats key set across every kernel mode.

``repro.obs.metrics.KERNEL_STAT_KEYS`` is the single definition of the
scheduler-counter contract: the dense kernel, the event-driven kernel,
and the batch round loop must produce
``kernel_stats`` with exactly this key set — no more, no fewer.  The
telemetry layer (``MetricsRegistry.absorb_kernel_stats``, sweep manifests,
``repro.run stats``) aggregates these dicts blindly across workers and
shards, so a kernel that grows or drops a counter without updating the
canonical tuple would silently corrupt the aggregation.  This module pins
the set and the plain-dict contract: ``+=`` on an undeclared key raises,
and ``reset()`` zeroes the counters in place.
"""

import pytest

from repro.obs.metrics import KERNEL_STAT_KEYS
from repro.sim import BatchSimulator, Simulator
from repro.sim.component import Component

HORIZON = 2_000


class Pulse(Component):
    """Minimal cacheable periodic ticker to exercise the span scheduler."""

    wake_cacheable = True

    def __init__(self, period, name="pulse"):
        super().__init__(name)
        self.period = period
        self.countdown = period

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.countdown = self.period

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles


def _run_kernel(**kwargs):
    simulator = Simulator(**kwargs)
    simulator.add_component(Pulse(7))
    simulator.step(HORIZON)
    return simulator.kernel_stats


class TestCanonicalKeySet:
    def test_the_canonical_tuple_is_pinned(self):
        assert KERNEL_STAT_KEYS == (
            "next_event_calls",
            "dense_ticks",
            "spans_skipped",
            "cycles_skipped",
            "plan_builds",
        )

    def test_event_driven_cached_kernel(self):
        assert tuple(_run_kernel()) == KERNEL_STAT_KEYS

    def test_dense_kernel(self):
        assert tuple(_run_kernel(dense=True)) == KERNEL_STAT_KEYS

    def test_batch_round_loop(self):
        batch = BatchSimulator()
        for period in (7, 11):
            simulator = Simulator()
            simulator.add_component(Pulse(period))
            batch.add(simulator, [(HORIZON, lambda elapsed: None)])
        batch.run()
        for instance in batch.instances:
            assert tuple(instance.simulator.kernel_stats) == KERNEL_STAT_KEYS


class TestFixedKeyContract:
    def test_kernel_stats_is_a_plain_dict(self):
        stats = Simulator().kernel_stats
        assert type(stats) is dict
        assert stats == dict.fromkeys(KERNEL_STAT_KEYS, 0)

    def test_undeclared_counter_raises_at_the_increment_site(self):
        simulator = Simulator()
        with pytest.raises(KeyError, match="mystery_counter"):
            simulator.kernel_stats["mystery_counter"] += 1

    def test_reset_preserves_the_canonical_keys(self):
        simulator = Simulator()
        simulator.add_component(Pulse(7))
        simulator.step(HORIZON)
        stats = simulator.kernel_stats
        assert stats["plan_builds"] == 1
        simulator.reset()
        assert tuple(stats) == KERNEL_STAT_KEYS
        assert set(stats.values()) == {0}

    def test_reset_zeroes_in_place(self):
        simulator = Simulator()
        simulator.add_component(Pulse(7))
        held = simulator.kernel_stats
        simulator.step(HORIZON)
        simulator.reset()
        assert simulator.kernel_stats is held
        assert held == dict.fromkeys(KERNEL_STAT_KEYS, 0)
