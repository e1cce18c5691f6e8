"""Batched multi-instance execution: advance N simulations together.

A sweep campaign runs many *instances* of the same scenario topology —
identical component structure, different parameters and horizons.  Each
instance is a whole :class:`~repro.sim.simulator.Simulator` that owns its
component classification and mutable
:class:`~repro.sim.simulator.SimState`, so instances are cheap to
co-schedule.  :class:`BatchSimulator` is the driver that advances such a
set of instances **in lockstep over span boundaries**: each scheduling
round gives every live instance exactly one boundary step (one
quiescent-span skip plus the dense tick at its wake), so the batch's
progress interleaves at span granularity instead of running instances one
after another.

**Stops and shared prefixes.**  Each instance carries a sorted list of
*stops* — absolute cycle counts at which a callback fires while the
instance is paused exactly on that cycle.  The instance's quiescent spans
are capped at the next stop (the min over that instance's remaining
stops — the batched skip math replays one capped span for every stop it
serves), which is what lets one simulation serve several sweep points at
once: points that differ only in their horizon share the instance, and each
point snapshots its results at its own stop.  Because a span split at a
stop boundary is replayed through the same
:meth:`~repro.sim.component.Component.skip` contract as an uncapped span,
the state observed at a stop is byte-identical to a standalone run of that
horizon — the property the sweep layer's batched execution builds its
artifact-identity guarantee on.

Callbacks observe the paused simulator (read counters, copy activity,
estimate power) and must not advance it; :class:`BatchSimulator` checks the
cycle counter after every callback and raises if one stepped the clock.

Instances do not interact and need not share a topology.  Each instance
advances by its *own* span per round; rounds are a fairness/interleaving
discipline, not a shared clock, so a slow instance never fragments the
quiescent spans of a fast one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.sim.simulator import SimState, SimulationError, Simulator

#: A stop callback: receives the instance-relative elapsed cycle count; the
#: simulator is paused exactly on that cycle while the callback runs.
StopCallback = Callable[[int], None]


class BatchInstance:
    """One simulation enrolled in a :class:`BatchSimulator`.

    ``stops`` maps instance-relative cycle counts (measured from the cycle
    at which the instance was added) to callbacks.  The instance is finished
    once its last stop has fired.
    """

    def __init__(
        self,
        simulator: Simulator,
        stops: Sequence[Tuple[int, StopCallback]],
        label: Optional[str] = None,
    ) -> None:
        if not stops:
            raise SimulationError("a batch instance needs at least one stop")
        ordered = sorted(stops, key=lambda stop: stop[0])
        previous = 0
        for cycles, _ in ordered:
            if cycles < 1:
                raise SimulationError("batch stops must be at least one cycle out")
            if cycles == previous:
                raise SimulationError(
                    f"duplicate batch stop at cycle {cycles}; register one stop "
                    f"per cycle and fan out inside the callback"
                )
            previous = cycles
        self.simulator = simulator
        self.label = label if label is not None else repr(simulator)
        self.elapsed = 0
        self._stops: List[Tuple[int, StopCallback]] = ordered
        self._next = 0

    @property
    def horizon(self) -> int:
        """The last stop — the total cycles this instance will run."""
        return self._stops[-1][0]

    @property
    def done(self) -> bool:
        """Whether every stop has fired."""
        return self._next >= len(self._stops)

    @property
    def next_stop(self) -> int:
        """The next pending stop (raises when :attr:`done`)."""
        return self._stops[self._next][0]

    def _fire_due_stops(self) -> None:
        tracer = tracing.TRACER
        while not self.done and self._stops[self._next][0] == self.elapsed:
            cycles, callback = self._stops[self._next]
            self._next += 1
            before = self.simulator.current_cycle
            if tracer is None:
                callback(cycles)
            else:
                start_ns = tracer.now_ns()
                callback(cycles)
                tracer.event(
                    "batch.stop",
                    "batch",
                    start_ns,
                    tracer.now_ns() - start_ns,
                    {"label": self.label, "cycle": cycles},
                )
            if self.simulator.current_cycle != before:
                raise SimulationError(
                    f"batch stop callback at cycle {cycles} of {self.label} "
                    f"advanced the simulator; callbacks must only observe"
                )


class BatchSimulator:
    """Advance many simulator instances in lockstep over span boundaries.

    Usage::

        batch = BatchSimulator()
        batch.add(sim_a, [(30_000, snapshot_a1), (60_000, snapshot_a2)])
        batch.add(sim_b, [(60_000, snapshot_b)])
        batch.run()

    :meth:`run` loops scheduling rounds; in each round every unfinished
    instance advances exactly one span boundary, capped at its next stop.
    Stops fire as soon as their cycle is reached.  The batch is done when
    every instance has fired its last stop.
    """

    def __init__(self) -> None:
        self.instances: List[BatchInstance] = []
        #: Scheduling rounds executed by :meth:`run` (diagnostics).
        self.rounds = 0
        self._running = False

    def add(
        self,
        simulator: Simulator,
        stops: Sequence[Tuple[int, StopCallback]],
        label: Optional[str] = None,
    ) -> BatchInstance:
        """Enroll ``simulator`` with its ``(cycles, callback)`` stops."""
        if self._running:
            raise SimulationError(
                "cannot enroll an instance while the batch is running; "
                "build a second BatchSimulator for late arrivals"
            )
        for instance in self.instances:
            if instance.simulator is simulator:
                raise SimulationError(
                    f"simulator {instance.label} is already enrolled in this batch"
                )
        instance = BatchInstance(simulator, stops, label=label)
        self.instances.append(instance)
        return instance

    def run(self) -> None:
        """Advance every instance through all of its stops.

        Each round gives every live instance exactly one
        :meth:`~repro.sim.simulator.SimState.advance_span` step, capped at
        its next stop, then fires the stops that step reached; instances are
        visited in enrollment order, so stops observed in the same round
        fire in that order too.  An instance that makes no progress raises
        :func:`stall_error` instead of spinning.
        """
        live: List[Tuple[BatchInstance, SimState, bool]] = []
        for instance in self.instances:
            if instance.done:
                continue
            simulator = instance.simulator
            # Bind each instance's classification once up front; the round
            # loop then drives the bound state directly, exactly like
            # Simulator.step does for a single instance.
            state = simulator._schedule_plan()
            live.append((instance, state, simulator.dense or state.forces_dense))
        self._running = True
        tracer = tracing.TRACER
        start_ns = tracer.now_ns() if tracer is not None else 0
        try:
            while live:
                self.rounds += 1
                if tracer is not None and self.rounds % 64 == 1:
                    tracer.counter("batch.live", "batch", {"instances": len(live)})
                still_live = []
                for entry in live:
                    instance, state, dense = entry
                    limit = instance.next_stop - instance.elapsed
                    advanced = state.advance_span(limit, dense=dense)
                    if advanced <= 0:
                        raise stall_error(instance)
                    instance.elapsed += advanced
                    instance._fire_due_stops()
                    if not instance.done:
                        still_live.append(entry)
                live = still_live
        finally:
            self._running = False
            if tracer is not None:
                tracer.event(
                    "batch.run",
                    "batch",
                    start_ns,
                    tracer.now_ns() - start_ns,
                    {"instances": len(self.instances), "rounds": self.rounds},
                )


def stall_error(instance: BatchInstance) -> SimulationError:
    """The zero-progress diagnostic: a mis-wired scenario, not a hang."""
    return SimulationError(
        f"batch instance {instance.label} made no progress at elapsed cycle "
        f"{instance.elapsed} with a stop pending at cycle {instance.next_stop}; "
        f"the scenario's wake scheduling is mis-wired (e.g. an empty wake heap "
        f"with work outstanding)"
    )
