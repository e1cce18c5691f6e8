"""Base class for all simulated hardware blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.activity import ActivityCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.sim.simulator import Simulator


class Component:
    """A named hardware block that is ticked once per clock cycle.

    Subclasses override :meth:`tick` (combinational + sequential behaviour for
    one cycle) and optionally :meth:`reset`.  Components record switching
    activity through :meth:`record`, which forwards to the owning simulator's
    :class:`~repro.sim.activity.ActivityCounters` once the component has been
    attached; activity recorded before attachment is buffered locally and
    merged at attach time so construction-time initialisation is not lost.

    **Wake protocol (event-driven simulation).**  The simulator may run in an
    event-driven mode that jumps over spans of cycles in which every component
    is *quiescent* instead of ticking each one cycle by cycle.  A component
    takes part by overriding two hooks:

    * :meth:`next_event` returns how many clock cycles from now the
      component next needs a real :meth:`tick` call — because an externally
      observable effect (an event pulse, a bus transfer, an interrupt, a
      register value another agent may act on) happens in that tick.  ``None``
      means the component schedules no wake of its own (it only reacts to
      external stimulus).  The returned horizon is a *promise*: the
      ``next_event() - 1`` ticks before the wake must be uniform quiescent
      ticks that :meth:`skip` can replay in one batch.
    * :meth:`skip` applies ``cycles`` worth of those quiescent ticks in O(1):
      batch-recording per-cycle activity (idle/sleep/active counters) and
      advancing deterministic internal counters, with *exactly* the state and
      activity a cycle-by-cycle replay would have produced.  It is called for
      every skipped span, including for components that returned ``None``.

    The defaults are conservative: a component that overrides :meth:`tick`
    but not :meth:`next_event` reports a wake every cycle (forcing dense
    stepping, today's behaviour), and a component that never overrides
    :meth:`tick` is trivially idle.  See ``docs/simulator.md`` for the full
    contract and a worked example.

    **Cached wake horizons.**  By default the scheduler re-polls
    :meth:`next_event` at every wake boundary.  A component may set the class
    attribute :attr:`wake_cacheable` to ``True`` to promise something
    stronger: its horizon only moves through (a) its own wake tick firing or
    (b) a state change that calls :meth:`wake_changed`.  The scheduler then
    caches the horizon as an absolute deadline and stops polling the
    component while it is idle — a quiescent-span computation costs
    O(active components) instead of O(all components).  Peripherals get the
    :meth:`wake_changed` calls for free: every register mutation notifies it
    (see :class:`~repro.peripherals.regfile.Register`).  A *reactive*
    wake — a horizon that can flip because of what another component did
    (a bus request landing, a FIFO filling, an interrupt pending) — is
    cacheable only if every such path syncs the component and then calls
    :meth:`wake_changed` (the bus fabrics, the µDMA and the Ibex core do);
    otherwise leave :attr:`wake_cacheable` at ``False``.

    **Owed ticks.**  The event-driven scheduler does not tick a cached
    component until it is due; its quiescent ticks pile up as a debt paid
    with one :meth:`skip`.  Anything that reads, writes or signals another
    component from inside the simulation (a bus master, an event delivery,
    a DMA pop, an observer change) calls that component's :meth:`sync`
    first, so it sees current state.
    """

    #: Opt-in flag for the cached wake-horizon scheduler (see class
    #: docstring).  ``False`` keeps the re-poll-every-boundary behaviour.
    wake_cacheable: bool = False

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        self._simulator: Optional["Simulator"] = None
        self._local_activity = ActivityCounters()

    # ------------------------------------------------------------------ wiring

    def attach(self, simulator: "Simulator") -> None:
        """Bind the component to a simulator.

        Called by :meth:`Simulator.add_component`; not meant to be called by
        user code directly.
        """
        if self._simulator is not None:
            raise RuntimeError(f"component {self.name!r} is already attached")
        self._simulator = simulator
        simulator.activity.merge(self._local_activity)
        self._local_activity.clear()

    @property
    def simulator(self) -> "Simulator":
        """The owning simulator (raises if the component is not attached)."""
        if self._simulator is None:
            raise RuntimeError(f"component {self.name!r} is not attached to a simulator")
        return self._simulator

    @property
    def is_attached(self) -> bool:
        """Whether the component has been added to a simulator."""
        return self._simulator is not None

    # ---------------------------------------------------------------- activity

    def record(self, event: str, amount: int = 1) -> None:
        """Record ``amount`` occurrences of ``event`` for this component.

        The hot path of every dense tick: it bumps the counter directly
        instead of going through the simulator's ``activity`` property and
        :meth:`ActivityCounters.add` (whose name checks the non-empty
        component name and literal event names make redundant).
        """
        if amount < 0:
            raise ValueError("activity increments must be non-negative")
        simulator = self._simulator
        counters = self._local_activity if simulator is None else simulator._state.activity
        counters._counts[(self.name, event)] += amount

    # --------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        """Advance the component by one clock cycle.

        ``cycle`` is the simulator's base tick (its ``current_cycle``).  The
        default implementation does nothing; purely combinational helpers may
        choose not to override.
        """

    def next_event(self) -> Optional[int]:
        """Clock cycles until this component next needs a real tick.

        Contract (see the class docstring): returning ``k >= 1`` guarantees
        the next ``k - 1`` ticks are quiescent and can be replayed by
        :meth:`skip`; returning ``None`` means the component never wakes on
        its own.  The default is maximally conservative — ``1`` (tick me every
        cycle) whenever :meth:`tick` is overridden, ``None`` when it is not
        (the inherited tick is a pure no-op).  Instance-assigned ``tick``
        attributes (test doubles, monkey-patches) count as overrides.
        """
        if type(self).tick is Component.tick and "tick" not in self.__dict__:
            return None
        return 1

    def wake_changed(self) -> None:
        """Tell the scheduler this component's cached wake horizon is stale.

        Must be called from every state transition that can move the wake of
        a :attr:`wake_cacheable` component — register writes, bus grants, DMA
        completions, event-line pulses.  Cheap (a set insertion) and safe to
        call redundantly or from components that are not cached at all; a
        no-op before the component is attached.
        """
        simulator = self._simulator
        if simulator is not None:
            simulator._notify_wake_changed(self)

    def sync(self) -> None:
        """Catch up on the ticks the scheduler still owes this component.

        A master calls it on its target before reading, writing or
        signalling it from inside the simulation.  Cheap when nothing is
        owed; a no-op before attachment.
        """
        simulator = self._simulator
        if simulator is not None:
            simulator._state.sync(self)

    def skip(self, cycles: int) -> None:
        """Apply ``cycles`` quiescent ticks in one batch.

        Called by the event-driven scheduler instead of ``cycles`` individual
        :meth:`tick` calls when the whole system is provably quiescent.  The
        default does nothing, which is correct for components whose quiescent
        tick is a pure no-op; components that account per-cycle activity while
        idle (sleep counters, idle-cycle counters) must override this and
        batch-record it.

        For a :attr:`wake_cacheable` component the call may come late — when
        it is next due or touched (:meth:`sync`), possibly from inside
        another component's tick — and may cover dense ticks as well as
        skipped spans.  It must not rely on the simulator's current cycle.
        """

    def reset(self) -> None:
        """Return the component to its post-reset state.

        Subclasses with internal state should override and call
        ``super().reset()``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "attached" if self._simulator is not None else "unattached"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
