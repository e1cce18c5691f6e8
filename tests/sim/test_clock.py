"""Tests for the clock-domain abstraction."""

import pytest

from repro.sim.clock import ClockDomain


class TestClockDomain:
    def test_period_seconds(self):
        clock = ClockDomain("soc", 55e6)
        assert clock.period_s == pytest.approx(1 / 55e6)

    def test_period_nanoseconds(self):
        clock = ClockDomain("soc", 100e6)
        assert clock.period_ns == pytest.approx(10.0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain("bad", 0)
        with pytest.raises(ValueError):
            ClockDomain("bad", -1e6)

    def test_cycles_for_time(self):
        clock = ClockDomain("soc", 55e6)
        assert clock.cycles_for_time(500e-9) == 27  # the paper's 500 ns target

    @pytest.mark.parametrize("frequency_hz", [55e6, 27e6])
    def test_cycles_for_time_keeps_exact_multiples_of_the_period(self, frequency_hz):
        # Truncating the float product dropped a cycle on 180 of these
        # multiples at 55 MHz and 254 at 27 MHz (7 periods gave 6 cycles).
        clock = ClockDomain("soc", frequency_hz)
        assert [clock.cycles_for_time(n * clock.period_s) for n in range(1, 2000)] == list(range(1, 2000))

    def test_cycles_for_time_rejects_negative(self):
        clock = ClockDomain("soc", 1e6)
        with pytest.raises(ValueError):
            clock.cycles_for_time(-1.0)

    def test_time_for_cycles_roundtrip(self):
        clock = ClockDomain("soc", 27e6)
        assert clock.time_for_cycles(27) == pytest.approx(1e-6)

    def test_time_for_cycles_rejects_negative(self):
        clock = ClockDomain("soc", 1e6)
        with pytest.raises(ValueError):
            clock.time_for_cycles(-5)

    def test_advance_and_reset(self):
        clock = ClockDomain("soc", 1e6)
        clock.advance()
        clock.advance(3)
        assert clock.cycles == 4
        clock.reset()
        assert clock.cycles == 0

    def test_advance_rejects_negative(self):
        clock = ClockDomain("soc", 1e6)
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_iso_latency_operating_points(self):
        """27 MHz and 55 MHz both satisfy the paper's 500 ns latency target."""
        pels_clock = ClockDomain("pels", 27e6)
        ibex_clock = ClockDomain("ibex", 55e6)
        assert pels_clock.cycles_for_time(500e-9) >= 7   # sequenced action budget
        assert ibex_clock.cycles_for_time(500e-9) >= 16  # interrupt handler budget
