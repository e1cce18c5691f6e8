"""The per-link trigger unit.

Incoming events are broadcast to every link; each link's trigger unit masks
them (marker 1 in Figure 2), checks the masked vector against a trigger
condition such as all-selected-active (AND) or any-selected-active (OR)
(marker 2), and — when the condition holds — pushes a trigger into the FIFO
in front of the execution unit.  The main CPU configures both the mask and
the condition through the link's private configuration registers (marker 3).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.fifo import TriggerFifo


class TriggerCondition(enum.IntEnum):
    """Combination function applied to the masked event vector."""

    ANY_SELECTED_ACTIVE = 0  # OR of the masked events
    ALL_SELECTED_ACTIVE = 1  # AND of the masked events

    @property
    def mnemonic(self) -> str:
        """Short name used in register dumps and examples."""
        return "OR" if self is TriggerCondition.ANY_SELECTED_ACTIVE else "AND"


class TriggerUnit:
    """Event mask + condition check + trigger FIFO of a single link."""

    def __init__(self, fifo_depth: int = 4) -> None:
        self.mask = 0
        self.condition = TriggerCondition.ANY_SELECTED_ACTIVE
        self.enabled = False
        self.fifo = TriggerFifo(fifo_depth)
        self.triggers = 0
        self.last_trigger_cycle: Optional[int] = None

    # ------------------------------------------------------------ configuration

    def configure(
        self,
        mask: int,
        condition: TriggerCondition = TriggerCondition.ANY_SELECTED_ACTIVE,
        enabled: bool = True,
    ) -> None:
        """Program the event mask, combination condition, and enable bit."""
        if mask < 0:
            raise ValueError("event mask must be non-negative")
        self.mask = mask
        self.condition = TriggerCondition(condition)
        self.enabled = enabled

    # --------------------------------------------------------------- evaluation

    def evaluate(self, events: int, cycle: int) -> bool:
        """Evaluate the incoming event vector for one cycle.

        Events are pulses, so the condition is evaluated on the current-cycle
        vector directly (edge semantics): a trigger fires in every cycle in
        which the masked vector satisfies the condition.  Returns whether a
        trigger was pushed this cycle.
        """
        if not self.enabled or self.mask == 0:
            return False
        masked = events & self.mask
        if self.condition is TriggerCondition.ANY_SELECTED_ACTIVE:
            fired = masked != 0
        else:
            fired = masked == self.mask
        if not fired:
            return False
        self.triggers += 1
        self.last_trigger_cycle = cycle
        self.fifo.push(cycle, masked)
        return True

    # ------------------------------------------------------------------- status

    @property
    def pending(self) -> int:
        """Number of buffered triggers waiting for the execution unit."""
        return self.fifo.level

    def status_word(self) -> int:
        """Packed status register value: [7:0] FIFO level, [8] enabled, [9] condition."""
        status = self.fifo.level & 0xFF
        if self.enabled:
            status |= 1 << 8
        if self.condition is TriggerCondition.ALL_SELECTED_ACTIVE:
            status |= 1 << 9
        return status

    def reset(self) -> None:
        """Return to the post-reset state (configuration is cleared too)."""
        self.mask = 0
        self.condition = TriggerCondition.ANY_SELECTED_ACTIVE
        self.enabled = False
        self.fifo.clear()
        self.triggers = 0
        self.last_trigger_cycle = None
