"""The simulation kernel: dense (cycle-driven) and event-driven stepping.

The simulator owns the components, the activity counters, and the trace
recorder.  A simulation advances in *base ticks*: one base tick is one
cycle of the SoC clock, and the base-tick counter is the only time base.
The kernel holds no frequency: the paper's operating points (27 MHz and
55 MHz) are each a whole SoC at one frequency, and the power model reads
that from ``SocConfig.frequency_hz``.

Two scheduling modes share that time base:

* **Dense mode** (``dense=True``) is the cycle-driven kernel: every
  component's :meth:`~repro.sim.component.Component.tick` is called on every
  cycle.  It is the reference semantics and the baseline the differential
  test-suite compares against.
* **Event-driven mode** (the default) computes the earliest pending wake
  and jumps the base-tick counter over the provably quiescent span in
  between.  The skipped ticks are replayed in one batch per component
  through :meth:`~repro.sim.component.Component.skip`, so final state,
  activity counters, and traces are cycle-exact — identical to dense
  stepping — while idle-heavy scenarios (the always-on monitoring workloads
  the paper is about) run orders of magnitude fewer Python-level tick calls.

The event-driven mode resolves wakes in two tiers:

* components flagged :attr:`~repro.sim.component.Component.wake_cacheable`
  have their :meth:`~repro.sim.component.Component.next_event` horizon cached
  as an **absolute base-tick deadline** in a lazy min-heap.  The cache entry
  is only recomputed when the component itself invalidates it through
  :meth:`~repro.sim.component.Component.wake_changed` (register writes, event
  inputs) or when its deadline fires — so a quiescent span costs O(active
  components), not O(all components).  A dense tick runs such a component
  only when it is due; the ticks it skips are *owed* and paid back through
  one ``skip`` when something touches it (see :class:`SimState`);
* all other hinted components are *volatile* and re-polled at every wake
  boundary, the safe default for wakes that other components move without
  notifying (in the SoC only PELS, whose horizon reads the event fabric).
  A component's own ``wake_cacheable`` is the only switch between the tiers.

**Plan vs. state.**  Each simulator classifies its own components: which
tick, which are volatile/cached, which must be replayed on a skip, and
whether anything forces dense stepping.  :meth:`SimState.bind` derives that
classification from a structural *fingerprint* of the component set (hook
overrides and cacheability) and stores it next to the rest
of the per-instance, mutable state: the base-tick counter, the
deadline heap and dirty set of the wake cache, and the activity/trace
recorders.  The simulator re-binds only when the fingerprint changes.

See ``docs/simulator.md`` for the wake protocol, the invalidation contract,
and the dense-vs-event equivalence guarantee.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.obs.metrics import KERNEL_STAT_KEYS
from repro.sim.activity import ActivityCounters
from repro.sim.component import Component
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for simulator misuse or when a run exceeds its cycle budget."""


class Simulator:
    """Coordinates the components and advances simulated time in base ticks."""

    def __init__(self, dense: bool = False) -> None:
        #: When True, use the reference cycle-driven kernel (tick every component
        #: on every cycle).  When False (default), skip over quiescent spans
        #: using the components' wake hints.  May be toggled between
        #: :meth:`step` calls; both modes produce identical state.
        self.dense = dense
        self._components: List[Component] = []
        self._components_by_name: Dict[str, Component] = {}
        self._state = SimState()
        #: Fingerprint the state's classification was bound from (None =
        #: never bound).
        self._fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------- delegation

    @property
    def activity(self) -> ActivityCounters:
        """Per-instance switching-activity counters (live in :class:`SimState`)."""
        return self._state.activity

    @property
    def traces(self) -> TraceRecorder:
        """Per-instance signal traces (live in :class:`SimState`)."""
        return self._state.traces

    @property
    def kernel_stats(self) -> Dict[str, int]:
        """Scheduler instrumentation: ``next_event_calls`` (wake polls),
        ``dense_ticks``, ``spans_skipped``, ``cycles_skipped``, and
        ``plan_builds`` (classifications bound for this instance).
        Monotonic; cleared by :meth:`reset`.
        """
        return self._state.kernel_stats

    @property
    def state(self) -> "SimState":
        """This instance's mutable scheduling state."""
        return self._state

    # -------------------------------------------------------------- components

    def add_component(self, component: Component) -> Component:
        """Register a component with the simulator."""
        if component.name in self._components_by_name:
            raise SimulationError(f"a component named {component.name!r} is already registered")
        component.attach(self)
        self._components.append(component)
        self._components_by_name[component.name] = component
        return component

    def component(self, name: str) -> Component:
        """Look up a registered component by name (O(1))."""
        try:
            return self._components_by_name[name]
        except KeyError as exc:
            raise SimulationError(f"unknown component {name!r}") from exc

    @property
    def components(self) -> Tuple[Component, ...]:
        """All registered components, in registration order."""
        return tuple(self._components)

    # ------------------------------------------------------------------ timing

    @property
    def current_cycle(self) -> int:
        """The base-tick counter, the kernel's only time base: the ``cycle``
        every :meth:`Component.tick` of this base tick receives."""
        return self._state.base_tick

    def _fingerprint_now(self) -> Tuple:
        """Everything the classification in :meth:`SimState.bind` depends on.

        Per component: which hooks it overrides (via its class *or* as an
        instance attribute — test doubles, monkey-patches) and whether it is
        wake-cacheable, so flipping an instance's ``wake_cacheable`` between
        steps re-binds like the ``dense`` flag takes effect.
        """
        return tuple(
            (
                _overrides(component, "tick"),
                _overrides(component, "next_event"),
                _overrides(component, "skip"),
                bool(component.wake_cacheable),
            )
            for component in self._components
        )

    def _schedule_plan(self) -> "SimState":
        """Bring the state's classification up to date; return the state.

        The classification goes stale when the component set or a
        component's hook overrides change — e.g. a test double assigning
        ``tick`` on the instance after registration — which the fingerprint
        check detects at the next :meth:`step`/:meth:`run_until` entry.
        Each re-bind counts one ``plan_builds``.
        """
        state = self._state
        fingerprint = self._fingerprint_now()
        if fingerprint != self._fingerprint:
            with tracing.span("kernel.plan", "kernel", components=len(self._components)):
                state.bind(fingerprint, self._components)
                self._fingerprint = fingerprint
                state.kernel_stats["plan_builds"] += 1
        return state

    def _notify_wake_changed(self, component: Component) -> None:
        """Invalidate ``component``'s cached wake deadline (if it has one)."""
        self._state.invalidate_wake(component)

    # --------------------------------------------------------------------- run

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` base ticks.

        In dense mode every component is ticked on every cycle.  In
        event-driven mode quiescent spans are skipped; the end state after
        ``step(n)`` is identical in both modes.
        """
        if cycles < 0:
            raise SimulationError("cannot step a negative number of cycles")
        if cycles == 0:
            return
        state = self._schedule_plan()
        dense = self.dense or state.forces_dense
        remaining = cycles
        # One global fetch per step() call; with no tracer installed each
        # span costs one extra branch (the disabled-telemetry overhead
        # benchmark holds this to <5% of the raw span loop).
        tracer = tracing.TRACER
        name = "kernel.dense" if dense else "kernel.span"
        stats = state.kernel_stats
        while remaining > 0:
            if tracer is None:
                remaining -= state.advance_span(remaining, dense)
                continue
            start_ns = tracer.now_ns()
            skipped_before = stats["cycles_skipped"]
            advanced = state.advance_span(remaining, dense)
            tracer.event(
                name,
                "kernel",
                start_ns,
                tracer.now_ns() - start_ns,
                {"cycles": advanced, "skipped": stats["cycles_skipped"] - skipped_before},
            )
            remaining -= advanced
        state.settle()

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 1_000_000,
        label: str = "condition",
    ) -> int:
        """Step until ``condition()`` is true; return the number of cycles stepped.

        Raises :class:`SimulationError` if the condition does not become true
        within ``max_cycles``.  In event-driven mode the condition is
        re-evaluated at every wake boundary (and after every dense tick), so
        conditions that flip on observable events are detected on the exact
        cycle; a condition watching a counter that advances *inside* a
        quiescent span (e.g. a raw COUNT register, or the side effects of an
        event line nothing observes) is only seen at the span's end — use
        ``dense=True`` for cycle-level polling of such state.
        """
        state = self._state
        start = state.base_tick
        polling = state.polling
        state.polling = True
        with tracing.span("kernel.run_until", "kernel", label=label) as args:
            try:
                self._schedule_plan()
                event_driven = not (self.dense or state.forces_dense)
                while True:
                    state.settle()
                    if condition():
                        break
                    elapsed = state.base_tick - start
                    if elapsed >= max_cycles:
                        raise SimulationError(f"{label} not reached within {max_cycles} cycles")
                    if event_driven:
                        span = state.quiescent_span(max_cycles - elapsed)
                        if span > 0:
                            state.skip_span(span)
                            continue
                    state.dense_tick(event_driven)
            finally:
                state.polling = polling
                args["cycles"] = state.base_tick - start
        return state.base_tick - start

    def reset(self) -> None:
        """Reset every component, the base-tick counter, and all bookkeeping.

        The trace recorder is cleared *in place* so references held by
        callers (analysis code, open timelines) keep observing the simulator
        instead of silently going stale.
        """
        for component in self._components:
            component.reset()
        self._state.reset()

    # ------------------------------------------------------------------- trace

    def trace(self, signal: str, value: object) -> None:
        """Record a value change of ``signal`` at the current base tick."""
        state = self._state
        state.traces.record(state.base_tick, signal, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "dense" if self.dense else "event-driven"
        return f"Simulator(cycle={self._state.base_tick}, components={len(self._components)}, mode={mode})"


def _overrides(component: Component, name: str) -> bool:
    """Whether ``component`` provides its own ``name`` hook — via its class
    *or* as an instance attribute (test doubles, monkey-patches)."""
    return getattr(type(component), name) is not getattr(Component, name) or name in component.__dict__


class SimState:
    """Per-instance mutable scheduling state.

    Owns the base-tick counter, the component classification
    bound by :meth:`bind`, the wake-deadline cache, and the activity/trace
    recorders.

    **Deadline cache.**  ``deadlines[i]`` is the authoritative absolute base
    tick at which cached component ``i`` next needs a dense tick (``None`` =
    no self-scheduled wake).  ``_heap`` holds ``(deadline, i)`` entries and is
    lazy: stale entries (whose deadline no longer matches the authoritative
    array) are discarded on peek.  ``_dirty`` indexes are re-polled at the
    next boundary.  Absolute deadlines survive skips unchanged — only firing
    (deadline expiry, detected in :meth:`dense_tick`) or an explicit
    :meth:`invalidate_wake` moves them.

    **Owed ticks.**  In event-driven stepping a cached component is only
    ticked when it is *due*: its deadline is this base tick, or it was
    invalidated since the last poll.  Every other tick is, by its wake
    promise, a quiescent tick, so instead of running it the state adds it to
    ``owed[i]``, and :meth:`skip_span` does the same for a skipped span.
    The debt is paid with one ``skip(owed)`` (:meth:`sync`)
    before anything looks at the component: its own tick, a re-poll, every
    cross-component access (the masters call
    :meth:`~repro.sim.component.Component.sync`), and every host boundary
    (:meth:`settle`).  A cross-component :meth:`invalidate_wake` on a
    component that still owes ticks raises, so a missed sync fails loudly.
    """

    def __init__(self) -> None:
        self.base_tick = 0
        self.activity = ActivityCounters()
        self.traces = TraceRecorder()
        # The canonical scheduler counters: the key set is defined once in
        # repro.obs.metrics (KERNEL_STAT_KEYS) and shared by every kernel
        # and the batch loop; ``stats[key] += n`` reads the key first, so an
        # undeclared key raises at the increment site
        # (tests/sim/test_kernel_stat_keys.py pins the set).
        self.kernel_stats: Dict[str, int] = dict.fromkeys(KERNEL_STAT_KEYS, 0)
        #: ``(component, cached index or None)`` in registration order.
        self.ticking: List[Tuple[Component, Optional[int]]] = []
        self.volatile: List[Component] = []
        self.cached: List[Component] = []
        #: Skippers replayed on every skipped span (everything not cached).
        self.skippers: List[Component] = []
        #: Cached indexes of cached skippers: a span is owed.
        self.owing: List[int] = []
        self.forces_dense = False
        self._cache_index: Dict[Component, int] = {}
        self.deadlines: List[Optional[int]] = []
        self.owed: List[int] = []
        self._dirty: set = set()
        self._heap: List[Tuple[int, int]] = []
        #: Component whose tick()/skip() is currently executing; its *self*
        #: invalidations are suppressed (see invalidate_wake).
        self._active_component: Optional[Component] = None
        #: True while :meth:`Simulator.run_until` polls a condition.  A
        #: horizon may then not reach past a change such conditions read on
        #: the exact cycle (PELS keeps the fetch of ``end`` a wake).
        self.polling = False

    # ----------------------------------------------------------------- binding

    def bind(self, fingerprint: Tuple, components: Sequence[Component]) -> None:
        """Classify ``components`` by ``fingerprint`` (see
        :meth:`Simulator._fingerprint_now`) so the hot loops only visit
        components that can have an effect:

        * ``ticking`` — components with a real :meth:`Component.tick` (a
          default tick is a no-op by definition and is never called);
        * ``volatile`` — hinted components re-polled at every wake boundary
          (reactive wakes that others move without notifying);
        * ``cached`` — hinted components flagged ``wake_cacheable``, whose
          horizons live in the deadline heap and are recomputed only on
          invalidation or deadline expiry;
        * ``skippers`` — components with a real :meth:`Component.skip` (the
          only ones a skipped span must be replayed on); cached ones go to
          ``owing`` instead, where a span is owed rather than replayed.

        A component that ticks but gives no wake hint forces dense stepping
        (``forces_dense``), in which case the event-driven loops are
        bypassed entirely instead of recomputing a zero-length span every
        cycle.
        """
        self.settle()
        ticking, skippers = [], []
        self.volatile, self.cached = [], []
        self.forces_dense = False
        for component, (ticks, hinted, skips, cacheable) in zip(components, fingerprint):
            if ticks:
                ticking.append(component)
                if not hinted:
                    self.forces_dense = True
            if hinted:
                (self.cached if cacheable else self.volatile).append(component)
            if skips:
                skippers.append(component)
        index_of = self._cache_index = {component: index for index, component in enumerate(self.cached)}
        self.ticking = [(component, index_of.get(component)) for component in ticking]
        self.skippers = [component for component in skippers if component not in index_of]
        self.owing = [index_of[component] for component in skippers if component in index_of]
        self.clear_wake_cache()

    # ------------------------------------------------------------- invalidation

    def invalidate_wake(self, component: Component) -> None:
        """Mark one cached component's deadline stale (O(1)).

        Invalidations a component raises about *itself* while its own
        ``tick``/``skip`` runs are ignored: the wake contract guarantees the
        ticks before its deadline evolve state uniformly (the absolute
        deadline stays valid — e.g. a watchdog decrementing its COUNT
        register), and the deadline tick itself is re-polled through the
        expiry sweep in :meth:`dense_tick`.  Cross-component invalidations
        (PELS delivering an event input, a CPU store hitting a peripheral
        register) are always honoured, and raise :class:`SimulationError`
        when the component still owes ticks: whoever touched it did not
        :meth:`sync` it first, and would have acted on stale state.
        """
        if component is self._active_component:
            return
        index = self._cache_index.get(component)
        if index is not None:
            owed = self.owed[index]
            if owed:
                raise SimulationError(
                    f"component {component.name!r} was touched by another component "
                    f"while {owed} ticks were still owed to it; sync it first"
                )
            self._dirty.add(index)

    # -------------------------------------------------------------- owed ticks

    def sync(self, component: object) -> None:
        """Pay back the ticks still owed to ``component``: a no-op unless it
        is a cached component that owes some (bus slaves need not be
        components at all)."""
        index = self._cache_index.get(component)
        if index is not None and self.owed[index]:
            self._pay(index)

    def settle(self) -> None:
        """Pay back every owed tick (a host boundary)."""
        owed = self.owed
        for index in range(len(owed)):
            if owed[index]:
                self._pay(index)

    def _pay(self, index: int) -> None:
        """Replay cached component ``index``'s owed ticks in one ``skip``.

        It may run inside another component's tick (a master touching it),
        so the active component is restored afterwards.
        """
        component = self.cached[index]
        owed = self.owed[index]
        self.owed[index] = 0
        active = self._active_component
        self._active_component = component
        component.skip(owed)
        self._active_component = active

    def clear_wake_cache(self) -> None:
        """Drop every cached deadline (component set unchanged)."""
        self.settle()
        self.owed = [0] * len(self.cached)
        self.deadlines = [None] * len(self.cached)
        self._dirty = set(range(len(self.cached)))
        self._heap = []

    def _repoll(self, index: int) -> None:
        """Recompute one cached component's absolute deadline."""
        if self.owed[index]:
            self._pay(index)
        horizon = self.cached[index].next_event()
        if horizon is None:
            self.deadlines[index] = None
            return
        if horizon < 1:
            horizon = 1
        deadline = self.base_tick + horizon - 1
        self.deadlines[index] = deadline
        heappush(self._heap, (deadline, index))
        # Lazy heaps accumulate stale entries; compact when they dominate.
        if len(self._heap) > 4 * len(self.cached) + 16:
            self._heap = [
                (deadline, i)
                for i, deadline in enumerate(self.deadlines)
                if deadline is not None
            ]
            self._heap.sort()

    # ------------------------------------------------------------------ dense

    def dense_tick(self, owe: bool = False) -> None:
        """One base tick of the reference cycle-driven semantics.

        With ``owe`` (event-driven stepping) a cached component that is not
        due — its deadline is after this tick and nothing invalidated it —
        owes the tick instead of running it (see the class docstring).
        """
        base_tick = self.base_tick
        deadlines, dirty, owed = self.deadlines, self._dirty, self.owed
        for component, index in self.ticking:
            if owe and index is not None:
                deadline = deadlines[index]
                if (deadline is None or deadline > base_tick) and index not in dirty:
                    owed[index] += 1
                    continue
                if owed[index]:
                    self._pay(index)
            self._active_component = component
            component.tick(base_tick)
        self._active_component = None
        self.base_tick = base_tick + 1
        self.kernel_stats["dense_ticks"] += 1
        # Expire cached deadlines the tick just serviced: the component fired
        # (or was due), so its old promise is used up and it must be
        # re-polled at the next boundary.  Register-notify usually marks it
        # dirty already; this sweep is the guaranteed path.
        heap = self._heap
        if heap:
            base_tick = self.base_tick
            deadlines = self.deadlines
            dirty = self._dirty
            while heap:
                deadline, index = heap[0]
                if deadlines[index] != deadline:
                    heappop(heap)  # stale entry
                    continue
                if deadline >= base_tick:
                    break
                heappop(heap)
                deadlines[index] = None
                dirty.add(index)

    # ------------------------------------------------------------ event-driven

    def advance_span(self, limit: int, dense: bool) -> int:
        """One iteration of the stepping loop against already-bound state.

        The caller (``Simulator.step``,
        :class:`~repro.sim.batch.BatchSimulator`) is responsible for having
        bound the classification first (``Simulator._schedule_plan``); this
        is the hot path and performs no staleness checks.
        """
        if dense:
            for _ in range(limit):
                self.dense_tick()
            return limit
        span = self.quiescent_span(limit)
        if span > 0:
            self.skip_span(span)
        if span < limit:
            self.dense_tick(True)
            span += 1
        return span

    def quiescent_span(self, limit: int) -> int:
        """Base ticks until the earliest pending wake, capped at ``limit``.

        Returns 0 when some component needs a dense tick right now.  A wake of
        ``k`` cycles pins the wake to base tick ``base_tick + k - 1``;
        everything before that is quiescent by the component's promise.

        Composed from :meth:`poll_dirty` + :meth:`volatile_bound` + the lazy
        heap peek over cached deadlines.
        """
        self.poll_dirty()
        span = self.volatile_bound(limit)
        if span == 0:
            return 0
        # Earliest cached deadline (lazy heap peek).
        base_tick = self.base_tick
        heap = self._heap
        deadlines = self.deadlines
        while heap:
            deadline, index = heap[0]
            if deadlines[index] != deadline:
                heappop(heap)
                continue
            gap = deadline - base_tick
            if gap <= 0:
                return 0
            if gap < span:
                span = gap
            break
        return span

    def poll_dirty(self) -> None:
        """Re-poll invalidated cached components (O(active))."""
        dirty = self._dirty
        if dirty:
            self.kernel_stats["next_event_calls"] += len(dirty)
            for index in tuple(dirty):
                self._repoll(index)
            dirty.clear()

    def volatile_bound(self, limit: int) -> int:
        """Span cap from the volatile components alone, in ``[0, limit]``.

        Returns 0 when a volatile component needs a dense tick right now.
        Does **not** consult the cached-deadline heap; :meth:`quiescent_span`
        combines the two.
        """
        stats = self.kernel_stats
        span = limit
        volatile = self.volatile
        for index, component in enumerate(volatile):
            horizon = component.next_event()
            if horizon is not None and horizon <= span:
                if horizon <= 1:
                    stats["next_event_calls"] += index + 1
                    return 0
                span = horizon - 1
        stats["next_event_calls"] += len(volatile)
        return span

    def skip_span(self, span: int) -> None:
        """Jump ``span`` quiescent base ticks, batch-applying skipped ticks.

        Cached skippers owe the span instead (see the class docstring).
        """
        stats = self.kernel_stats
        stats["spans_skipped"] += 1
        stats["cycles_skipped"] += span
        owed = self.owed
        for index in self.owing:
            owed[index] += span
        for component in self.skippers:
            self._active_component = component
            component.skip(span)
        self._active_component = None
        self.base_tick += span

    # ------------------------------------------------------------------- reset

    def reset(self) -> None:
        """Rewind to cycle 0: clear the counters, traces, stats, and deadlines.

        The activity counters, trace recorder and kernel stats are cleared
        *in place* so references held by callers keep observing the
        simulator.  Cached deadlines are absolute base ticks; rewinding time
        voids them, and owed ticks are dropped, not paid: the components
        were reset.
        """
        self.activity.clear()
        self.traces.clear()
        self.base_tick = 0
        self.kernel_stats.update(dict.fromkeys(KERNEL_STAT_KEYS, 0))
        self.owed = [0] * len(self.cached)
        self.clear_wake_cache()

