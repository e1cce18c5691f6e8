"""Simulation kernel used by every hardware model in the repo.

The kernel intentionally stays small: components register themselves with a
:class:`Simulator` and the simulator advances a global base-tick counter.  It
offers two cycle-exact scheduling modes:

* **dense** (``Simulator(dense=True)``): each component's
  :meth:`Component.tick` is called exactly once per base tick — the
  reference cycle-driven semantics;
* **event-driven** (the default): components advertise their next wake via
  :meth:`Component.next_event` and the scheduler jumps over provably
  quiescent spans, batch-replaying the skipped ticks through
  :meth:`Component.skip`.  It caches the wakes of components flagged
  :attr:`Component.wake_cacheable` and re-polls the others at every
  boundary.  Final state, activity counters, and traces are
  identical to dense stepping (the property suite in
  ``tests/property/test_differential.py`` enforces this), but idle-heavy
  scenarios run orders of magnitude fewer Python-level calls.

Activity counters and signal traces hang off the simulator so the power
model can consume them after a run.  See ``docs/simulator.md`` for the wake
protocol.
"""

from repro.sim.component import Component
from repro.sim.activity import ActivityCounters
from repro.sim.batch import BatchInstance, BatchSimulator
from repro.sim.simulator import SimState, Simulator, SimulationError
from repro.sim.trace import SignalTrace, TraceRecorder

__all__ = [
    "ActivityCounters",
    "BatchInstance",
    "BatchSimulator",
    "Component",
    "SignalTrace",
    "SimState",
    "SimulationError",
    "Simulator",
    "TraceRecorder",
]
