"""Batched multi-instance execution: run N simulations through their stops.

A sweep campaign runs many *instances* of the same scenario topology —
identical component structure, different parameters and horizons.  Each
instance is a whole :class:`~repro.sim.simulator.Simulator` that owns its
component classification and mutable
:class:`~repro.sim.simulator.SimState`.  :class:`BatchSimulator` enrolls a
set of such instances and runs each one through all of its stops in
enrollment order; the instances never interact, so nothing is gained by
interleaving them.

**Stops and shared prefixes.**  Each instance carries a sorted list of
*stops* — absolute cycle counts at which a callback fires while the
instance is paused exactly on that cycle.  The instance's quiescent spans
are capped at the next stop, which is what lets one simulation serve
several sweep points at once: points that differ only in their horizon
share the instance, and each point snapshots its results at its own stop.
Because a span split at a stop boundary is replayed through the same
:meth:`~repro.sim.component.Component.skip` contract as an uncapped span,
the state observed at a stop is byte-identical to a standalone run of that
horizon — the property the sweep layer's batched execution builds its
artifact-identity guarantee on.

Callbacks observe the paused simulator (read counters, copy activity,
estimate power) and must not advance it; :class:`BatchSimulator` checks the
cycle counter after every callback and raises if one stepped the clock.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.sim.simulator import SimulationError, Simulator

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
    def done(self) -> bool:
        """Whether every stop has fired."""
        return self._next >= len(self._stops)

    def _fire_stop(self, cycles: int, callback: StopCallback) -> None:
        """Fire the next stop; the simulator is paused exactly on ``cycles``."""
        # A host boundary: callbacks see no owed ticks.
        self.simulator.state.settle()
        self._next += 1
        before = self.simulator.current_cycle
        with tracing.span("batch.stop", "batch", label=self.label, cycle=cycles):
            callback(cycles)
        if self.simulator.current_cycle != before:
            raise SimulationError(
                f"batch stop callback at cycle {cycles} of {self.label} "
                f"advanced the simulator; callbacks must only observe"
            )


class BatchSimulator:
    """Run many simulator instances, one after another, through their stops.

    Usage::

        batch = BatchSimulator()
        batch.add(sim_a, [(30_000, snapshot_a1), (60_000, snapshot_a2)])
        batch.add(sim_b, [(60_000, snapshot_b)])
        batch.run()

    :meth:`run` takes the instances in enrollment order and advances each
    one span boundary at a time, capped at its next stop, until its last
    stop has fired.  Stops fire as soon as their cycle is reached.
    """

    def __init__(self) -> None:
        self.instances: List[BatchInstance] = []
        #: Boundary steps (``advance_span`` calls) executed by :meth:`run`
        #: (diagnostics).
        self.rounds = 0

    def add(
        self,
        simulator: Simulator,
        stops: Sequence[Tuple[int, StopCallback]],
        label: Optional[str] = None,
    ) -> BatchInstance:
        """Enroll ``simulator`` with its ``(cycles, callback)`` stops."""
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

        Each instance in turn takes
        :meth:`~repro.sim.simulator.SimState.advance_span` steps, each capped
        at its next stop, and fires each stop as the steps reach it.
        :attr:`rounds` and each :attr:`BatchInstance.elapsed` are exact on
        every exit, also when a step or a stop callback raises.
        """
        with tracing.span("batch.run", "batch", instances=len(self.instances)) as args:
            rounds = self.rounds
            try:
                for instance in self.instances:
                    simulator = instance.simulator
                    # Bind the instance's classification once; the loop then
                    # drives the bound state directly, exactly like
                    # Simulator.step does, and keeps its counters in locals.
                    state = simulator._schedule_plan()
                    dense = simulator.dense or state.forces_dense
                    advance_span = state.advance_span
                    elapsed = instance.elapsed
                    try:
                        for stop, callback in instance._stops[instance._next :]:
                            while elapsed < stop:
                                rounds += 1
                                elapsed += advance_span(stop - elapsed, dense)
                            # A span never crosses the stop it is capped at.
                            instance.elapsed = elapsed
                            instance._fire_stop(stop, callback)
                    finally:
                        instance.elapsed = elapsed
            finally:
                self.rounds = args["rounds"] = rounds
