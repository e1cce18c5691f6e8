"""Per-phase wall-time profiling for the sweep executor.

Every sweep answers "where did the wall-clock go" for its campaign:
the executor charges every second of work to one of five phases —

* ``expand``   — grid expansion into concrete sweep points;
* ``prepare``  — scenario construction (batched groups: the prepare hook
  plus enrolment; solo points prepare inside their run and report 0
  here);
* ``simulate`` — advancing the kernel (the scenario run, or the batch
  round loop);
* ``finalize`` — post-processing outcomes into point records (activity
  flattening, power/area models);
* ``write``    — serialising results.json/results.csv.

Worker processes time their own chunks and the parent sums them, so under
``--jobs N`` the phase totals are *worker-summed* wall time and may exceed
the campaign's end-to-end wall clock — the ratio is the effective
parallelism.  The breakdown lands in the manifest's
``execution.telemetry.profile`` block and is rendered by
``python -m repro.run stats``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Tuple

#: The canonical sweep phases, in pipeline order.
SWEEP_PHASES: Tuple[str, ...] = ("expand", "prepare", "simulate", "finalize", "write")


class PhaseTimer:
    """Accumulates wall seconds per named phase."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in SWEEP_PHASES}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the body's wall time to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def merge(self, other: Mapping[str, float]) -> None:
        """Sum another timer's phase totals into this one (worker fold-in)."""
        for name, seconds in other.items():
            self.add(name, seconds)

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready phase totals (every canonical phase present)."""
        return dict(self.seconds)


def format_profile(profile: Mapping[str, float], wall_seconds: float) -> str:
    """Human-readable phase table (rendered by ``stats``).

    Percentages are of the summed phase time, not the end-to-end wall
    clock: under a worker pool the phases overlap, and the final line makes
    that explicit by reporting both totals.
    """
    total = sum(profile.values())
    lines = ["phase        seconds   share"]
    for name in SWEEP_PHASES:
        seconds = profile.get(name, 0.0)
        share = seconds / total * 100.0 if total > 0 else 0.0
        lines.append(f"{name:<10} {seconds:>9.3f}   {share:5.1f}%")
    for name in sorted(set(profile) - set(SWEEP_PHASES)):
        seconds = profile[name]
        share = seconds / total * 100.0 if total > 0 else 0.0
        lines.append(f"{name:<10} {seconds:>9.3f}   {share:5.1f}%")
    lines.append(
        f"{'total':<10} {total:>9.3f}   (worker-summed; end-to-end wall "
        f"{wall_seconds:.3f} s)"
    )
    return "\n".join(lines)
