"""Trigger FIFO.

When a link's trigger condition fires while the execution unit is still busy
with a previous sequenced action, the trigger is buffered "with a FIFO to
prevent interference with a running execution unit" (Section III-1b).  The
FIFO stores the masked event snapshot that caused the trigger so later
commands could, in principle, inspect it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional


@dataclass(frozen=True)
class TriggerEntry:
    """One buffered trigger occurrence."""

    cycle: int
    events_snapshot: int


class TriggerFifo:
    """Bounded FIFO of :class:`TriggerEntry` items.

    Overflow does not raise: like the hardware, the newest trigger is dropped
    and counted, so the rest of the system keeps running and the loss is
    observable (``dropped`` counter) — an important property for the
    worst-case analyses in the tests.

    ``on_push``, when set, is called after every buffered trigger: PELS
    uses it to learn that a link it does not step has work queued.
    """

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.depth = depth
        self._entries: Deque[TriggerEntry] = deque()
        self.pushed = 0
        self.popped = 0
        self.dropped = 0
        self.high_watermark = 0
        self.on_push: Optional[Callable[[], None]] = None

    def push(self, cycle: int, events_snapshot: int) -> bool:
        """Buffer a trigger; returns ``False`` (and counts a drop) when full."""
        if len(self._entries) >= self.depth:
            self.dropped += 1
            return False
        self._entries.append(TriggerEntry(cycle=cycle, events_snapshot=events_snapshot))
        self.pushed += 1
        self.high_watermark = max(self.high_watermark, len(self._entries))
        if self.on_push is not None:
            self.on_push()
        return True

    def pop(self) -> Optional[TriggerEntry]:
        """Remove and return the oldest trigger, or ``None`` when empty."""
        if not self._entries:
            return None
        self.popped += 1
        return self._entries.popleft()

    def peek(self) -> Optional[TriggerEntry]:
        """Return the oldest trigger without removing it."""
        return self._entries[0] if self._entries else None

    @property
    def level(self) -> int:
        """Current occupancy."""
        return len(self._entries)

    @property
    def empty(self) -> bool:
        """Whether the FIFO holds no triggers."""
        return not self._entries

    @property
    def full(self) -> bool:
        """Whether another push would be dropped."""
        return len(self._entries) >= self.depth

    def clear(self) -> None:
        """Drop all entries and statistics."""
        self._entries.clear()
        self.pushed = 0
        self.popped = 0
        self.dropped = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._entries)
