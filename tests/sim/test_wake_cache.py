"""Tests for the cached wake-horizon scheduler (deadline cache + invalidation)."""

from repro.peripherals.timer import Timer
from repro.peripherals.watchdog import Watchdog
from repro.sim.component import Component
from repro.sim.simulator import Simulator


class CountingBlinker(Component):
    """Cacheable periodic component that counts its next_event polls.

    Mimics the peripheral contract by hand: the only externally driven state
    change (set_period) calls wake_changed.
    """

    wake_cacheable = True

    def __init__(self, period, name="blinker"):
        super().__init__(name)
        self.period = period
        self.countdown = period
        self.polls = 0
        self.pulses = 0

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.pulses += 1
            self.countdown = self.period

    def next_event(self):
        self.polls += 1
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles

    def set_period(self, period):
        self.period = period
        self.countdown = period
        self.wake_changed()


class VolatileIdler(Component):
    """Non-cacheable hinted component: must be re-polled at every boundary."""

    def __init__(self, name="idler"):
        super().__init__(name)
        self.polls = 0

    def tick(self, cycle):
        pass

    def next_event(self):
        self.polls += 1
        return None


class TestDeadlineCache:
    def test_idle_cached_component_is_not_repolled(self):
        simulator = Simulator()
        fast = simulator.add_component(CountingBlinker(period=10, name="fast"))
        slow = simulator.add_component(CountingBlinker(period=10_000, name="slow"))
        simulator.step(5_000)
        assert fast.pulses == 500
        # The slow component never fired and never changed: one poll when the
        # plan was built, nothing after — O(active), not O(all).
        assert slow.polls == 1
        assert fast.polls >= 500

    def test_volatile_component_is_polled_every_boundary(self):
        simulator = Simulator()
        simulator.add_component(CountingBlinker(period=10))
        idler = simulator.add_component(VolatileIdler())
        simulator.step(1_000)
        # ~2 boundaries per pulse (span end + post-dense-tick).
        assert idler.polls >= 100

    def test_wake_changed_moves_the_deadline(self):
        simulator = Simulator()
        blinker = simulator.add_component(CountingBlinker(period=1_000))
        simulator.step(10)
        blinker.set_period(5)  # invalidates the cached 1000-cycle deadline
        simulator.step(20)
        assert blinker.pulses == 4

    def test_stale_deadline_without_invalidation_is_a_contract_break(self):
        # Documents *why* wake_changed is mandatory: mutating wake-relevant
        # state without it leaves the cached deadline in place.
        simulator = Simulator()
        blinker = simulator.add_component(CountingBlinker(period=1_000))
        simulator.step(10)
        blinker.period = 5
        blinker.countdown = 5  # no wake_changed(): scheduler still waits ~990
        simulator.step(20)
        assert blinker.pulses == 0

    def test_deadlines_survive_step_boundaries(self):
        simulator = Simulator()
        blinker = simulator.add_component(CountingBlinker(period=997))
        for _ in range(10):
            simulator.step(100)
        assert blinker.pulses == 1
        assert simulator.kernel_stats["plan_builds"] == 1

    def test_late_component_add_rebuilds_the_plan(self):
        simulator = Simulator()
        simulator.add_component(CountingBlinker(period=50, name="a"))
        simulator.step(100)
        late = simulator.add_component(CountingBlinker(period=7, name="b"))
        simulator.step(70)
        assert late.pulses == 10
        assert simulator.kernel_stats["plan_builds"] == 2

    def test_reset_clears_absolute_deadlines(self):
        simulator = Simulator()
        blinker = simulator.add_component(CountingBlinker(period=100))
        simulator.step(350)
        assert blinker.pulses == 3
        simulator.reset()
        blinker.countdown = blinker.period
        simulator.step(350)
        # A stale absolute deadline (399) would postpone the first pulse past
        # the whole run; re-derived deadlines fire 3 more times.
        assert blinker.pulses == 6

    def test_kernel_stats_account_for_skipping(self):
        simulator = Simulator()
        simulator.add_component(CountingBlinker(period=100))
        simulator.step(1_000)
        stats = simulator.kernel_stats
        assert stats["dense_ticks"] == 10
        assert stats["cycles_skipped"] == 990
        assert stats["dense_ticks"] + stats["cycles_skipped"] == 1_000
        assert stats["spans_skipped"] >= 10


class TestPeripheralInvalidation:
    def test_register_write_invalidates_timer_deadline(self):
        dense_sim, event_sim = Simulator(dense=True), Simulator()
        timers = []
        for simulator in (dense_sim, event_sim):
            timer = Timer(compare=10_000)
            simulator.add_component(timer)
            timer.start()
            simulator.step(5)
            # Mid-run reconfiguration: the cached 10k-cycle deadline must die.
            timer.regs.reg("COMPARE").write(20)
            simulator.step(100)
            timers.append(timer)
        assert timers[0].overflow_count == timers[1].overflow_count > 0
        assert (
            timers[0].regs.reg("COUNT").value == timers[1].regs.reg("COUNT").value
        )

    def test_software_helper_invalidates_watchdog_deadline(self):
        dense_sim, event_sim = Simulator(dense=True), Simulator()
        dogs = []
        for simulator in (dense_sim, event_sim):
            wdt = Watchdog(timeout=50, grace=10)
            simulator.add_component(wdt)
            wdt.start()
            simulator.step(30)
            wdt.kick()  # hw_write path: reload must re-arm the deadline
            simulator.step(45)
            dogs.append(wdt)
        assert dogs[0].barks == dogs[1].barks
        assert dogs[0].regs.reg("COUNT").value == dogs[1].regs.reg("COUNT").value

    def test_next_event_calls_drop_with_cache(self):
        class VolatileWatchdog(Watchdog):
            """The same watchdog, re-polled at every wake boundary."""

            wake_cacheable = False

        def run(watchdog_type):
            simulator = Simulator()
            timer = Timer(compare=500)
            simulator.add_component(timer)
            dogs = [watchdog_type(name=name, timeout=1_000_000) for name in ("wdt_a", "wdt_b", "wdt_c")]
            for wdt in dogs:
                simulator.add_component(wdt)
                wdt.start()
            timer.start()
            simulator.step(100_000)
            assert len(simulator.state.cached) == 1 + 3 * watchdog_type.wake_cacheable
            return simulator.kernel_stats["next_event_calls"], [wdt.regs.reg("COUNT").value for wdt in dogs]

        cached_calls, cached_counts = run(Watchdog)
        volatile_calls, volatile_counts = run(VolatileWatchdog)
        assert cached_counts == volatile_counts
        assert cached_calls < volatile_calls / 2


class TestMicroFixes:
    def test_component_lookup_is_dict_backed(self):
        simulator = Simulator()
        blinker = simulator.add_component(CountingBlinker(period=3))
        assert simulator.component("blinker") is blinker
        assert simulator._components_by_name["blinker"] is blinker
