"""Consumer-aware event fabric: unobserved lines unlock unbounded spans,
attaching an observer mid-run re-bounds them on the exact cycle."""

import pytest

from repro.peripherals.events import EventFabric
from repro.peripherals.pwm import Pwm
from repro.peripherals.timer import Timer
from repro.soc.pulpissimo import SocConfig, build_soc

PWM_PERIOD = 128


def _soc_with_running_pwm(dense=False, with_pels=True):
    soc = build_soc(SocConfig(dense=dense, with_pels=with_pels))
    soc.pwm.regs.reg("PERIOD").write(PWM_PERIOD)
    soc.pwm.start()
    return soc


class TestUnobservedProducers:
    def test_unobserved_pwm_reports_unbounded_horizon(self):
        soc = _soc_with_running_pwm()
        assert soc.pwm.next_event() is None

    def test_observed_pwm_reports_bounded_horizon(self):
        soc = _soc_with_running_pwm()
        soc.fabric.observe(soc.pwm.event_line_name("period"))
        assert soc.pwm.next_event() == PWM_PERIOD

    def test_unobserved_pwm_yields_multi_period_spans(self):
        soc = _soc_with_running_pwm()
        soc.run(100 * PWM_PERIOD)
        stats = soc.simulator.kernel_stats
        # The legacy kernel needed one dense tick per period (~100); the
        # consumer-aware kernel crosses the whole horizon in a few spans.
        assert stats["dense_ticks"] <= 3
        assert soc.pwm.periods_elapsed == 100

    def test_unobserved_spans_stay_cycle_exact_vs_dense(self):
        dense_soc = _soc_with_running_pwm(dense=True)
        event_soc = _soc_with_running_pwm(dense=False)
        for soc in (dense_soc, event_soc):
            soc.run(1_000)
        assert dense_soc.pwm.periods_elapsed == event_soc.pwm.periods_elapsed
        assert dense_soc.pwm.output_high_cycles == event_soc.pwm.output_high_cycles
        assert (
            dense_soc.pwm.regs.reg("COUNT").value == event_soc.pwm.regs.reg("COUNT").value
        )
        assert (
            dense_soc.fabric.line("pwm.period").pulse_count
            == event_soc.fabric.line("pwm.period").pulse_count
        )
        assert dense_soc.activity.as_dict() == event_soc.activity.as_dict()

    def test_period_lowered_below_count_stays_cycle_exact(self):
        # Regression: DUTY latched high, then PERIOD written below the
        # running COUNT — the free-running skip must still count the
        # immediate wrap tick as output-high (COUNT < DUTY), like dense does.
        results = []
        for dense in (True, False):
            soc = build_soc(SocConfig(dense=dense))
            pwm = soc.pwm
            pwm.regs.reg("PERIOD").write(100)
            pwm.regs.reg("DUTY_SHADOW").write(50)
            pwm.regs.reg("CTRL").write(0x3)  # enable | update-on-period
            soc.run(130)  # latch DUTY=50 at the first wrap, run to COUNT=30
            pwm.regs.reg("PERIOD").write(10)  # below the running COUNT
            soc.run(400)
            results.append(
                (
                    pwm.output_high_cycles,
                    pwm.periods_elapsed,
                    pwm.regs.reg("COUNT").value,
                    pwm.regs.reg("DUTY").value,
                )
            )
        assert results[0] == results[1]

    def test_unobserved_timer_free_runs(self):
        soc = build_soc(SocConfig())
        soc.timer.regs.reg("COMPARE").hw_write(50)
        soc.timer.start()
        soc.run(5_000)
        assert soc.timer.next_event() is None
        assert soc.timer.overflow_count == 100
        assert soc.simulator.kernel_stats["dense_ticks"] <= 3

    def test_one_shot_timer_keeps_bounded_horizon(self):
        # The one-shot overflow disables the timer — a non-uniform transition
        # that must stay a real wake even with nobody consuming the line.
        soc = build_soc(SocConfig())
        soc.timer.regs.reg("COMPARE").hw_write(50)
        soc.timer.regs.reg("CTRL").write(0x3)  # enable | one-shot
        assert soc.timer.next_event() == 50
        soc.run(200)
        assert soc.timer.overflow_count == 1
        assert not soc.timer.enabled


class TestMidRunObserverAttach:
    def test_pels_trigger_rebounds_pwm_on_the_exact_cycle(self):
        """Attach a PELS link trigger on pwm.period mid-run; the first
        triggered service must land on the same cycle as under dense."""
        from repro.core.assembler import Assembler

        cycles_to_first_service = []
        for dense in (True, False):
            soc = _soc_with_running_pwm(dense=dense)
            pels = soc.pels
            assert pels is not None
            soc.run(3 * PWM_PERIOD + 17)  # mid-period, mid-run
            pwm_bit = 1 << soc.fabric.index_of(soc.pwm.event_line_name("period"))
            pels.program_link(0, Assembler().assemble("end"), trigger_mask=pwm_bit)
            elapsed = soc.run_until(
                lambda: pels.link(0).events_serviced > 0, max_cycles=10 * PWM_PERIOD
            )
            cycles_to_first_service.append((elapsed, soc.simulator.current_cycle))
        assert cycles_to_first_service[0] == cycles_to_first_service[1]

    def test_irq_route_rebounds_pwm_on_the_exact_cycle(self):
        results = []
        for dense in (True, False):
            soc = _soc_with_running_pwm(dense=dense, with_pels=False)
            soc.run(2 * PWM_PERIOD + 40)
            soc.irq_controller.enable_line(soc.pwm.event_line_name("period"), 5)
            elapsed = soc.run_until(
                lambda: soc.irq_controller.has_pending, max_cycles=10 * PWM_PERIOD
            )
            results.append((elapsed, soc.pwm.periods_elapsed))
        assert results[0] == results[1]

    def test_disabling_the_route_unbounds_again(self):
        soc = _soc_with_running_pwm(with_pels=False)
        line = soc.pwm.event_line_name("period")
        soc.irq_controller.enable_line(line, 5)
        assert soc.pwm.next_event() is not None
        soc.irq_controller.disable_line(line)
        assert soc.pwm.next_event() is None


class TestFabricObserverBookkeeping:
    def test_subscribe_observes_everything_by_default(self):
        fabric = EventFabric()
        fabric.add_line("a.x")
        fabric.subscribe(lambda line: None)
        assert fabric.is_observed("a.x")

    def test_selective_subscription_observes_nothing(self):
        fabric = EventFabric()
        fabric.add_line("a.x")
        fabric.subscribe(lambda line: None, observe_all=False)
        assert not fabric.is_observed("a.x")

    def test_observe_before_line_registration(self):
        fabric = EventFabric()
        fabric.observe("late.line")
        fabric.add_line("late.line")
        assert fabric.is_observed("late.line")

    def test_unobserve_below_zero_raises(self):
        fabric = EventFabric()
        fabric.add_line("a.x")
        with pytest.raises(ValueError):
            fabric.unobserve("a.x")

    def test_accounting_observed_pulses_is_rejected(self):
        fabric = EventFabric()
        fabric.add_line("a.x")
        fabric.observe("a.x")
        with pytest.raises(RuntimeError):
            fabric.account_unobserved_pulses("a.x", 3)

    def test_observer_changes_notify_the_producer(self):
        class Recorder:
            def __init__(self):
                self.calls = 0

            def sync(self):
                pass

            def wake_changed(self):
                self.calls += 1

        fabric = EventFabric()
        fabric.add_line("a.x")
        producer = Recorder()
        fabric.register_producer("a.x", producer)
        fabric.observe("a.x")
        fabric.observe("a.x")  # second observer: no transition, no call
        fabric.unobserve("a.x")
        fabric.unobserve("a.x")
        assert producer.calls == 2  # 0->1 and 1->0 transitions only
        fabric.subscribe(lambda line: None)  # global observer: all producers
        assert producer.calls == 3


class TestBareComponentsStayConservative:
    def test_pwm_without_fabric_is_bounded(self):
        # A peripheral outside any fabric cannot prove nobody watches it
        # (unit tests poll its registers), so it keeps per-period wakes.
        pwm = Pwm(period=32)
        pwm.start()
        assert pwm.next_event() == 32

    def test_timer_without_fabric_is_bounded(self):
        timer = Timer(compare=10)
        timer.start()
        assert timer.next_event() == 10
