"""Single-wire event lines and the event fabric.

The event fabric is the glue between peripherals and PELS:

* peripherals *pulse* output event lines (timer overflow, SPI end-of-transfer);
* PELS broadcasts all input events to every link's trigger unit;
* PELS instant actions *drive* event lines back towards peripherals, and a
  subset of those outputs can be looped back into the fabric, which is how
  links trigger each other (marker 9 in Figure 2 of the paper).

**Consumer awareness.**  The fabric tracks which lines have a registered
*observer* — a PELS link trigger mask, an enabled interrupt route, an event-
interconnect channel, or a blanket subscription.  Producers consult
:meth:`EventFabric.is_observed` from their wake hints: a pulse on a line
nothing observes cannot change any other component's behaviour, so the
producer may report an unbounded wake horizon and let the event-driven
scheduler skip whole multiples of its period, batch-accounting the pulse
statistics through :meth:`EventFabric.account_unobserved_pulses`.  Observer
changes are pushed to the registered producer components via
:meth:`~repro.sim.component.Component.wake_changed`, so attaching a consumer
mid-run re-bounds the producer's horizon on the exact cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Protocol, Tuple


class _WakeProducer(Protocol):
    """What the fabric needs from a producer: a catch-up hook and a wake
    invalidation hook (see :class:`~repro.sim.component.Component`)."""

    def sync(self) -> None:  # pragma: no cover - protocol stub
        ...

    def wake_changed(self) -> None:  # pragma: no cover - protocol stub
        ...


@dataclass
class EventLine:
    """A named single-wire event with a fixed index in the fabric."""

    index: int
    name: str
    producer: str = "unknown"
    level: bool = field(default=False, init=False)
    pulse_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("event line index must be non-negative")
        if not self.name:
            raise ValueError("event line name must be non-empty")


class EventFabric:
    """Registry and current-cycle state of all event lines in the I/O domain.

    Events are *pulses*: a producer asserts a line during one cycle and the
    fabric clears all pulses at the end of the cycle (:meth:`end_cycle`),
    after consumers (the PELS trigger units, peripherals with event inputs)
    have sampled them.  Level-type observers can subscribe with
    :meth:`subscribe` to be notified synchronously on every pulse.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("event fabric capacity must be positive")
        self.capacity = capacity
        self._lines: List[EventLine] = []
        self._by_name: Dict[str, EventLine] = {}
        self._pending: set[int] = set()
        self._subscribers: List[Callable[[EventLine], None]] = []
        self.total_pulses = 0
        # Consumer-awareness bookkeeping: per-line observer counts (keyed by
        # name so not-yet-registered lines can be observed), a count of
        # blanket observers (subscriptions watching *every* line), and the
        # producer components to notify when observation changes.
        self._observer_counts: Dict[str, int] = {}
        self._global_observers = 0
        self._producers: Dict[str, _WakeProducer] = {}

    # --------------------------------------------------------------- registry

    def add_line(self, name: str, producer: str = "unknown") -> EventLine:
        """Register a new event line and return it."""
        if name in self._by_name:
            raise ValueError(f"event line {name!r} already exists")
        if len(self._lines) >= self.capacity:
            raise ValueError(f"event fabric is full ({self.capacity} lines)")
        line = EventLine(index=len(self._lines), name=name, producer=producer)
        self._lines.append(line)
        self._by_name[name] = line
        return line

    def line(self, name_or_index: str | int) -> EventLine:
        """Look up a line by name or index."""
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < len(self._lines):
                raise KeyError(f"no event line with index {name_or_index}")
            return self._lines[name_or_index]
        try:
            return self._by_name[name_or_index]
        except KeyError as exc:
            raise KeyError(f"no event line named {name_or_index!r}") from exc

    def index_of(self, name: str) -> int:
        """Index of the line called ``name``."""
        return self.line(name).index

    @property
    def lines(self) -> Tuple[EventLine, ...]:
        """All registered lines in index order."""
        return tuple(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    # --------------------------------------------------------------- behaviour

    def pulse(self, name_or_index: str | int) -> None:
        """Assert a line for the current cycle."""
        line = self.line(name_or_index)
        line.level = True
        line.pulse_count += 1
        self.total_pulses += 1
        self._pending.add(line.index)
        for subscriber in self._subscribers:
            subscriber(line)

    def is_active(self, name_or_index: str | int) -> bool:
        """Whether the line is asserted in the current cycle."""
        return self.line(name_or_index).level

    def active_mask(self) -> int:
        """Bitmask of all lines asserted in the current cycle."""
        mask = 0
        for index in self._pending:
            mask |= 1 << index
        return mask

    def active_lines(self) -> Tuple[EventLine, ...]:
        """All currently asserted lines."""
        return tuple(self._lines[index] for index in sorted(self._pending))

    def end_cycle(self) -> None:
        """Clear all pulses; call once per simulated cycle after consumers ran."""
        for index in self._pending:
            self._lines[index].level = False
        self._pending.clear()

    def subscribe(
        self, callback: Callable[[EventLine], None], observe_all: bool = True
    ) -> None:
        """Register a callback invoked synchronously on every pulse.

        By default a subscription counts as an observer of *every* line
        (conservative: producers stop skipping their pulses).  A consumer
        that only acts on an explicit subset — like the interrupt controller,
        which checks its enabled-line table — passes ``observe_all=False``
        and registers its interest per line with :meth:`observe`.
        """
        flips = observe_all and self._global_observers == 0
        if flips:
            for producer in self._producers.values():
                producer.sync()
        self._subscribers.append(callback)
        if observe_all:
            self._global_observers += 1
        if flips:
            for producer in self._producers.values():
                producer.wake_changed()

    # ------------------------------------------------------- consumer awareness

    def register_producer(self, name_or_index: str | int, producer: _WakeProducer) -> None:
        """Bind the component that drives a line, for observation-change pushes."""
        self._producers[self.line(name_or_index).name] = producer

    def _line_name(self, name_or_index: str | int) -> str:
        if isinstance(name_or_index, int):
            return self.line(name_or_index).name
        return name_or_index

    def observe(self, name_or_index: str | int) -> None:
        """Declare a consumer of a line (idempotence is the caller's job).

        Accepts names of lines that are not registered yet, so consumers can
        be configured before the producer declares its events.
        """
        name = self._line_name(name_or_index)
        self._set_observers(name, self._observer_counts.get(name, 0) + 1)

    def unobserve(self, name_or_index: str | int) -> None:
        """Retract one :meth:`observe` declaration for a line."""
        name = self._line_name(name_or_index)
        count = self._observer_counts.get(name, 0)
        if count <= 0:
            raise ValueError(f"event line {name!r} has no observers to remove")
        self._set_observers(name, count - 1)

    def _set_observers(self, name: str, count: int) -> None:
        """Set the observer count of ``name``.  When the line gains its first
        observer or loses its last, its producer is caught up *before* the
        flip (ticks it still owes ran while the line was unobserved) and
        re-bounded after it."""
        flips = (count == 0) != (self._observer_counts.get(name, 0) == 0)
        producer = self._producers.get(name) if flips else None
        if producer is not None:
            producer.sync()
        self._observer_counts[name] = count
        if producer is not None:
            producer.wake_changed()

    def is_observed(self, name_or_index: str | int) -> bool:
        """Whether any consumer would notice a pulse on this line."""
        if self._global_observers > 0:
            return True
        return self._observer_counts.get(self._line_name(name_or_index), 0) > 0

    def account_unobserved_pulses(self, name_or_index: str | int, count: int) -> None:
        """Batch-record ``count`` pulses skipped on an unobserved line.

        Used by producers replaying a skipped span: the pulse statistics stay
        cycle-exact with dense stepping, but no subscriber runs and no level
        is latched — which is exactly what an unobserved pulse amounts to
        (dense pulses are cleared at the end of their own cycle).
        """
        if count < 0:
            raise ValueError("pulse count must be non-negative")
        line = self.line(name_or_index)
        if self.is_observed(line.name):
            raise RuntimeError(
                f"event line {line.name!r} has observers; its pulses cannot be skipped"
            )
        line.pulse_count += count
        self.total_pulses += count

    def reset(self) -> None:
        """Clear pulse state and statistics (registered lines and observers
        are configuration, not state, and are kept)."""
        for line in self._lines:
            line.level = False
            line.pulse_count = 0
        self._pending.clear()
        self.total_pulses = 0


def mask_for(fabric: EventFabric, names: Tuple[str, ...] | List[str]) -> int:
    """Build an event bitmask from line names (helper for trigger configuration)."""
    mask = 0
    for name in names:
        mask |= 1 << fabric.index_of(name)
    return mask
