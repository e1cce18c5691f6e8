"""E12 — Telemetry: the disabled-mode overhead floor and enabled-mode neutrality.

The observability layer (``repro.obs``) promises that when no tracer is
installed the kernel hot paths are untouched: ``step()`` performs one
module-global fetch and one ``is None`` branch per call, and the span loop
it enters is byte-for-byte the pre-telemetry loop.  This benchmark holds
that promise to a number:

* **baseline** — the raw event-driven span loop (``_schedule_plan`` + a
  manual ``advance_span`` loop), i.e. ``step()`` with the telemetry
  dispatch physically absent;
* **disabled** — the real ``step()`` with no tracer installed;
* **enabled** — the real ``step()`` under an installed tracer (recorded
  for the figure, not asserted: enabled mode pays for real timestamping).

``overhead = max(0, disabled/baseline - 1)`` must stay under 5%.  The
workload is span-heavy (a short-period pulse over a long horizon), driven
in fixed-size steps the way campaigns step between drive stops, so the
per-call dispatch cost is amortised exactly the way real campaigns
amortise it.  Baseline and disabled steps alternate, so both see the same
host speed.  Results land in ``results/telemetry_overhead.txt`` and the
``telemetry_overhead`` section of ``results/BENCH_kernel.json`` (consumed
by the CI perf-regression job, which asserts the same floor).
"""

import time

from repro.obs import tracing
from repro.sim import Simulator
from repro.sim.component import Component

HORIZON_CYCLES = 200_000
CHUNK_CYCLES = 1_000  # ~0.6 ms per step() call: the grain baseline and disabled alternate at
PULSE_PERIOD = 7  # ~28.5k spans over the horizon: span-dispatch dominated
REPEATS = 7
MAX_DISABLED_OVERHEAD = 0.05


class Pulse(Component):
    wake_cacheable = True

    def __init__(self, period, name="pulse"):
        super().__init__(name)
        self.period = period
        self.countdown = period
        self.pulses = 0

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.pulses += 1
            self.countdown = self.period

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles


def _fresh():
    simulator = Simulator()
    simulator.add_component(Pulse(PULSE_PERIOD))
    return simulator


def _baseline_advance(simulator, cycles):
    """``step(cycles)`` with the telemetry dispatch removed."""
    state = simulator._schedule_plan()
    remaining = cycles
    while remaining > 0:
        remaining -= state.advance_span(remaining, dense=False)


def _disabled_advance(simulator, cycles):
    simulator.step(cycles)


def _enabled_advance(simulator, cycles):
    with tracing.capture():
        simulator.step(cycles)


def _lockstep_best(advances, repeats=REPEATS):
    """``(best wall time, last simulator)`` per advance function over ``repeats`` rounds.

    Each round drives one fresh simulator per function to ``HORIZON_CYCLES``
    in ``CHUNK_CYCLES`` steps, rotating which function goes first at every
    step.  A function's best time is the sum, over the step positions, of
    that step's fastest time across the rounds: every position does the same
    work in every round, so its min is the standard noise shield for ratio
    benchmarks on shared hosts (matches test_bench_sweep.py), applied per
    step.  Host speed on shared machines swings by tens of percent over a
    few hundred milliseconds; whole-horizon passes timed one after another
    differ by more than the ceiling even when they run the same code, while
    sub-millisecond steps in alternation see the same swings.
    """
    steps = HORIZON_CYCLES // CHUNK_CYCLES
    best = [[float("inf")] * steps for _ in advances]
    simulators = [None] * len(advances)
    for round_index in range(repeats):
        simulators = [_fresh() for _ in advances]
        for step_index in range(steps):
            for offset in range(len(advances)):
                index = (round_index + step_index + offset) % len(advances)
                start = time.perf_counter()
                advances[index](simulators[index], CHUNK_CYCLES)
                elapsed = time.perf_counter() - start
                best[index][step_index] = min(best[index][step_index], elapsed)
    return [(sum(times), simulator) for times, simulator in zip(best, simulators)]


def test_bench_telemetry_disabled_overhead(save_result, save_kernel_json):
    # Warm imports and caches so no pass pays a one-time start-up cost.
    _fresh().step(64)

    (baseline_seconds, baseline_sim), (disabled_seconds, disabled_sim) = _lockstep_best(
        (_baseline_advance, _disabled_advance)
    )
    [(enabled_seconds, enabled_sim)] = _lockstep_best((_enabled_advance,))

    overhead = max(0.0, disabled_seconds / max(baseline_seconds, 1e-9) - 1.0)
    enabled_cost = enabled_seconds / max(baseline_seconds, 1e-9) - 1.0

    lines = [
        f"Telemetry overhead on a span-heavy run ({HORIZON_CYCLES} cycles, "
        f"{PULSE_PERIOD}-cycle pulse period, {CHUNK_CYCLES}-cycle steps, "
        f"fastest of {REPEATS} lockstep rounds per step):",
        f"  raw span loop (no dispatch) : {baseline_seconds * 1e3:8.1f} ms",
        f"  step(), telemetry disabled  : {disabled_seconds * 1e3:8.1f} ms "
        f"({overhead * 100:+.1f}%)",
        f"  step(), tracer installed    : {enabled_seconds * 1e3:8.1f} ms "
        f"({enabled_cost * 100:+.1f}%)",
        f"  disabled-overhead floor     : {MAX_DISABLED_OVERHEAD * 100:.0f}%",
    ]
    save_result("telemetry_overhead", "\n".join(lines))
    save_kernel_json(
        "telemetry_overhead",
        {
            "scenario": "pulse-span-loop",
            "horizon_cycles": HORIZON_CYCLES,
            "chunk_cycles": CHUNK_CYCLES,
            "baseline_seconds": baseline_seconds,
            "disabled_seconds": disabled_seconds,
            "enabled_seconds": enabled_seconds,
            "overhead": overhead,
            "floor": MAX_DISABLED_OVERHEAD,
        },
    )

    # Telemetry must never perturb simulation state, enabled or disabled.
    stats = baseline_sim.kernel_stats
    assert disabled_sim.kernel_stats == stats
    assert enabled_sim.kernel_stats == stats
    assert stats["spans_skipped"] > 10_000  # the workload is span-dispatch bound

    assert overhead <= MAX_DISABLED_OVERHEAD
