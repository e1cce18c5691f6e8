"""Common base class for memory-mapped peripherals with event lines."""

from __future__ import annotations

from typing import Dict, Optional

from repro.peripherals.events import EventFabric
from repro.peripherals.regfile import RegisterFile
from repro.sim.component import Component


class Peripheral(Component):
    """A bus-slave peripheral that may produce and consume event lines.

    Subclasses populate :attr:`regs` in their constructor, implement
    :meth:`tick` for cycle behaviour, and use :meth:`emit_event` to pulse
    their output event lines.  Input event lines (driven by PELS instant
    actions or by other peripherals) are received through
    :meth:`on_event_input`, which the SoC wiring calls when a subscribed line
    pulses.
    """

    #: Event inputs whose effect depends only on how many times, and at which
    #: cycles, they are delivered: no event pulse, bus transfer, interrupt or
    #: wake of this peripheral may follow from one.  PELS replays an instant
    #: action that only reaches such inputs inside its quiet runs instead of
    #: spending a dense tick on it.  Empty by default.
    passive_inputs: frozenset = frozenset()

    def __init__(self, name: str, wait_states: int = 0) -> None:
        super().__init__(name)
        self.regs = RegisterFile(name)
        self.wait_states = wait_states
        self._fabric: Optional[EventFabric] = None
        self._output_events: Dict[str, str] = {}
        # Wake-invalidation wiring: any register mutation may move this
        # peripheral's next wake, so the whole file notifies the scheduler.
        # Installed here (not at attach time) so pre-attach writes are also
        # covered once the component joins a simulator.
        self.regs.set_notify(self.wake_changed)

    # ------------------------------------------------------------ event wiring

    def connect_events(self, fabric: EventFabric) -> None:
        """Attach the peripheral to the SoC event fabric.

        Subclasses override :meth:`declare_events` to register their lines;
        this method must be called exactly once before simulation.
        """
        if self._fabric is not None:
            raise RuntimeError(f"{self.name}: event fabric already connected")
        self._fabric = fabric
        self.declare_events(fabric)

    def declare_events(self, fabric: EventFabric) -> None:
        """Register output/input event lines.  Default: no events."""

    def add_output_event(self, local_name: str) -> str:
        """Register an output event line named ``<peripheral>.<local_name>``."""
        if self._fabric is None:
            raise RuntimeError(f"{self.name}: connect_events() must be called first")
        full_name = f"{self.name}.{local_name}"
        self._fabric.add_line(full_name, producer=self.name)
        self._fabric.register_producer(full_name, self)
        self._output_events[local_name] = full_name
        return full_name

    def emit_event(self, local_name: str) -> None:
        """Pulse the output event line registered as ``local_name``."""
        if self._fabric is None:
            raise RuntimeError(f"{self.name}: connect_events() must be called first")
        full_name = self._output_events.get(local_name)
        if full_name is None:
            raise KeyError(f"{self.name}: unknown output event {local_name!r}")
        self._fabric.pulse(full_name)
        self.record(f"event_{local_name}")

    def event_line_name(self, local_name: str) -> str:
        """Fully qualified fabric name of output event ``local_name``."""
        full_name = self._output_events.get(local_name)
        if full_name is None:
            raise KeyError(f"{self.name}: unknown output event {local_name!r}")
        return full_name

    def event_observed(self, local_name: str) -> bool:
        """Whether anything would notice a pulse of output ``local_name``.

        Conservatively ``True`` when the peripheral is not connected to a
        fabric (a bench-level test polling registers *is* a consumer the
        fabric cannot see) or when the event was never declared.  Producers
        use this from :meth:`next_event` to report unbounded horizons for
        wakes whose only effect feeds an unobserved line.
        """
        if self._fabric is None:
            return True
        full_name = self._output_events.get(local_name)
        if full_name is None:
            return True
        return self._fabric.is_observed(full_name)

    def account_skipped_events(self, local_name: str, count: int) -> None:
        """Batch-replay ``count`` unobserved pulses of output ``local_name``.

        The cycle-exact counterpart of ``count`` :meth:`emit_event` calls for
        a span the scheduler skipped: pulse counters and activity match dense
        stepping, but no consumer runs (there are none — the fabric enforces
        it).  No-op when the peripheral has no fabric (dense ticks would not
        have emitted either).
        """
        if self._fabric is None or count <= 0:
            return
        full_name = self._output_events.get(local_name)
        if full_name is None:
            raise KeyError(f"{self.name}: unknown output event {local_name!r}")
        self._fabric.account_unobserved_pulses(full_name, count)
        self.record(f"event_{local_name}", count)

    def on_event_input(self, local_name: str) -> None:
        """React to an input event pulse.  Default: record and ignore."""
        self.record(f"event_in_{local_name}")

    # ------------------------------------------------------------ bus interface

    def bus_read(self, offset: int) -> int:
        """APB read: return the register value at ``offset``."""
        self.record("bus_reads")
        return self.regs.read(offset)

    def bus_write(self, offset: int, value: int) -> None:
        """APB write: update the register at ``offset``."""
        self.record("bus_writes")
        self.regs.write(offset, value)

    def register_offset(self, register_name: str) -> int:
        """Byte offset of one of this peripheral's registers (for assemblers)."""
        return self.regs.offset_of(register_name)

    # ----------------------------------------------------------------- control

    def reset(self) -> None:
        self.regs.reset()
