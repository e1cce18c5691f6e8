"""Interrupt controller.

In the baseline (Figure 1a of the paper) every peripheral event that needs
linking is routed to the processing domain as an interrupt.  The controller
subscribes to the event fabric, latches enabled events as pending interrupt
lines, and presents the highest-priority pending line to the core.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.peripherals.events import EventFabric, EventLine
from repro.sim.component import Component


class InterruptController(Component):
    """Level-latched interrupt controller fed by the event fabric."""

    def __init__(self, name: str = "irq_ctrl", fabric: Optional[EventFabric] = None) -> None:
        super().__init__(name)
        self._fabric: Optional[EventFabric] = None
        self._enabled_lines: Dict[str, int] = {}
        self._pending: Dict[int, bool] = {}
        #: Cores served by this controller (they register themselves): a
        #: newly latched interrupt moves their wake.
        self._cores: List[Component] = []
        self.total_interrupts = 0
        if fabric is not None:
            self.connect_fabric(fabric)

    def connect_fabric(self, fabric: EventFabric) -> None:
        """Subscribe to every pulse of the event fabric.

        The subscription is *selective* for the consumer-aware wake protocol:
        the controller only acts on lines in its enabled table, so only those
        are declared observed (``observe_all=False`` plus per-line
        :meth:`~repro.peripherals.events.EventFabric.observe` calls) and
        producers of unrouted lines keep their unbounded idle horizons.
        """
        self._fabric = fabric
        fabric.subscribe(self._on_event, observe_all=False)
        for line_name in self._enabled_lines:
            fabric.observe(line_name)

    def enable_line(self, event_line_name: str, irq_number: int) -> None:
        """Route fabric line ``event_line_name`` to interrupt ``irq_number``."""
        if irq_number < 0:
            raise ValueError("irq number must be non-negative")
        if event_line_name not in self._enabled_lines and self._fabric is not None:
            self._fabric.observe(event_line_name)
        self._enabled_lines[event_line_name] = irq_number
        self._pending.setdefault(irq_number, False)

    def disable_line(self, event_line_name: str) -> None:
        """Stop routing ``event_line_name`` to the core."""
        removed = self._enabled_lines.pop(event_line_name, None)
        if removed is not None and self._fabric is not None:
            self._fabric.unobserve(event_line_name)

    def add_core(self, core: Component) -> None:
        """Register a core whose wake depends on the pending interrupts."""
        self._cores.append(core)

    def _on_event(self, line: EventLine) -> None:
        irq_number = self._enabled_lines.get(line.name)
        if irq_number is None:
            return
        if not self._pending.get(irq_number, False):
            self.total_interrupts += 1
            # The latch may wake a sleeping core: catch it up first.
            for core in self._cores:
                core.sync()
            self._pending[irq_number] = True
            for core in self._cores:
                core.wake_changed()
        self.record("interrupts_raised")

    # ------------------------------------------------------------- core facing

    @property
    def has_pending(self) -> bool:
        """Whether any enabled interrupt is pending."""
        return any(self._pending.values())

    def highest_pending(self) -> Optional[int]:
        """Lowest-numbered (highest-priority) pending interrupt, or ``None``."""
        pending = [irq for irq, is_pending in self._pending.items() if is_pending]
        return min(pending) if pending else None

    def claim(self, irq_number: int) -> None:
        """Core acknowledges ``irq_number``; clears the pending latch."""
        if not self._pending.get(irq_number, False):
            raise RuntimeError(f"interrupt {irq_number} is not pending")
        self._pending[irq_number] = False
        self.record("interrupts_claimed")

    def pending_mask(self) -> int:
        """Bitmask of pending interrupt numbers (for status registers/tests)."""
        mask = 0
        for irq_number, is_pending in self._pending.items():
            if is_pending and irq_number < 32:
                mask |= 1 << irq_number
        return mask

    def reset(self) -> None:
        for irq_number in self._pending:
            self._pending[irq_number] = False
        self.total_interrupts = 0
