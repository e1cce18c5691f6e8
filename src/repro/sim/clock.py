"""Clock-domain abstraction.

A :class:`~repro.sim.simulator.Simulator` runs every component on one
:class:`ClockDomain`: it counts the cycles components receive in
:meth:`~repro.sim.component.Component.tick` and converts between cycles and
wall-clock time for the power model.  One clock is all the paper's
evaluation needs: its two operating points, 27 MHz and 55 MHz, are each a
whole SoC at one frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ClockDomain:
    """A named clock domain running at ``frequency_hz``.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"soc"`` or ``"pels"``.
    frequency_hz:
        Clock frequency in hertz.  Must be positive.
    """

    name: str
    frequency_hz: float
    cycles: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"clock domain {self.name!r}: frequency must be positive")

    @property
    def period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    @property
    def period_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1e9 / self.frequency_hz

    def cycles_for_time(self, seconds: float) -> int:
        """Number of full cycles elapsed in ``seconds`` of wall-clock time.

        Within a relative ``1e-9`` of a whole count it is that count, so
        ``7 * period_s`` is 7 cycles, not the 6 a truncated product gives.
        """
        if seconds < 0:
            raise ValueError("time must be non-negative")
        exact = seconds * self.frequency_hz
        cycles = round(exact)
        return cycles if abs(exact - cycles) <= 1e-9 * cycles else int(exact)

    def time_for_cycles(self, cycles: int) -> float:
        """Wall-clock time in seconds taken by ``cycles`` clock cycles."""
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        return cycles / self.frequency_hz

    def advance(self, cycles: int = 1) -> None:
        """Advance the domain-local cycle counter."""
        if cycles < 0:
            raise ValueError("cannot advance by a negative number of cycles")
        self.cycles += cycles

    def reset(self) -> None:
        """Reset the domain-local cycle counter to zero."""
        self.cycles = 0
