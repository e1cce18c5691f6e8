"""E10 — Event-driven kernel: quiescence-skipping speedup on idle-heavy runs.

Two experiments, one per layer of the scheduler:

* **dense vs event-driven** (PR 1's claim): the duty-cycled logging workload
  under the legacy cycle-driven kernel and the event-driven kernel, with
  identical statistics and an asserted wall-clock floor.
* **legacy vs cached scheduler** (this PR's claim): the figure5-idle
  long-horizon scenario with the PWM actuator armed — the workload whose
  128-cycle period used to bound every idle span.  The legacy configuration
  re-polls every hinted component per boundary and treats every event line
  as observed (``cached_wakes=False`` + a blanket fabric subscription); the
  cached configuration uses the deadline cache and the consumer-aware
  fabric.  Both must agree on the PWM period count cycle-exactly, the
  speedup floor is asserted, and ``next_event()`` call counts are recorded
  before/after.

Results land in ``results/event_kernel_speedup.txt`` (human-readable) and
``results/BENCH_kernel.json`` (machine-readable, consumed by the CI
perf-regression job).
"""

import time

from repro.power.scenarios import build_idle_measurement_soc
from repro.workloads.longrun import DutyCycledLoggingConfig, prepare_duty_cycled_logging
from repro.workloads.registry import run_prepared

HORIZON_CYCLES = 60_000
SAMPLE_PERIOD = 2_000

IDLE_HORIZON_CYCLES = 2_000_000
IDLE_PWM_PERIOD = 128
#: Wall-clock floor for the cached scheduler over the legacy event kernel on
#: the figure5-idle long-horizon scenario.  Measured speedups are >100x; 2x
#: is the acceptance floor and keeps the assert robust on loaded CI.
CACHED_MIN_SPEEDUP = 2.0
DENSE_MIN_SPEEDUP = 3.0


def _run(dense: bool):
    config = DutyCycledLoggingConfig(
        sample_period_cycles=SAMPLE_PERIOD, horizon_cycles=HORIZON_CYCLES, dense=dense
    )
    prepared = prepare_duty_cycled_logging(config)
    return run_prepared(prepared, HORIZON_CYCLES).outcome(HORIZON_CYCLES).stats


def test_bench_event_kernel_speedup(benchmark, save_result, save_kernel_json):
    dense_start = time.perf_counter()
    dense_result = _run(dense=True)
    dense_seconds = time.perf_counter() - dense_start

    event_result = benchmark(_run, False)
    event_seconds = benchmark.stats.stats.min

    speedup = dense_seconds / max(event_seconds, 1e-9)
    lines = [
        f"Event-driven kernel on duty-cycled logging ({HORIZON_CYCLES} cycles, "
        f"{SAMPLE_PERIOD}-cycle sampling period):",
        f"  dense kernel        : {dense_seconds * 1e3:8.1f} ms wall-clock",
        f"  event-driven kernel : {event_seconds * 1e3:8.1f} ms wall-clock",
        f"  speedup             : {speedup:8.1f}x",
        f"  samples taken       : {event_result['samples_taken']} (identical under both kernels)",
        f"  words logged        : {event_result['words_logged']}",
    ]
    save_result("event_kernel_speedup", "\n".join(lines))
    save_kernel_json(
        "dense_vs_event",
        {
            "scenario": "duty-cycled-logging",
            "horizon_cycles": HORIZON_CYCLES,
            "dense_seconds": dense_seconds,
            "event_seconds": event_seconds,
            "speedup": speedup,
            "floor": DENSE_MIN_SPEEDUP,
        },
    )

    # Both kernels must agree exactly on what happened...
    assert dense_result == event_result
    # ...and the event-driven kernel must make idle-heavy horizons cheap.
    # (Measured speedups are 30-100x; 3x keeps the assert robust on loaded CI.)
    assert speedup >= DENSE_MIN_SPEEDUP


def _idle_soc(legacy: bool):
    """The figure5-idle scenario with the PWM actuator armed."""
    soc = build_idle_measurement_soc("pels", frequency_hz=27e6)
    if legacy:
        # PR-1 kernel: no deadline cache, every event line observed (the
        # pre-consumer-aware fabric woke for every PWM period pulse).
        soc.simulator.cached_wakes = False
        soc.fabric.subscribe(lambda line: None)
    soc.pwm.regs.reg("PERIOD").write(IDLE_PWM_PERIOD)
    soc.pwm.start()
    return soc


def _timed_idle_run(legacy: bool):
    soc = _idle_soc(legacy)
    start = time.perf_counter()
    soc.run(IDLE_HORIZON_CYCLES)
    seconds = time.perf_counter() - start
    return seconds, soc


def test_bench_cached_scheduler_speedup(save_result, save_kernel_json):
    legacy_seconds, legacy_soc = _timed_idle_run(legacy=True)
    cached_seconds, cached_soc = _timed_idle_run(legacy=False)

    legacy_stats = legacy_soc.simulator.kernel_stats
    cached_stats = cached_soc.simulator.kernel_stats
    speedup = legacy_seconds / max(cached_seconds, 1e-9)
    lines = [
        f"Cached wake-horizon scheduler on figure5-idle + {IDLE_PWM_PERIOD}-cycle PWM "
        f"({IDLE_HORIZON_CYCLES} cycles):",
        f"  legacy event kernel : {legacy_seconds * 1e3:8.1f} ms wall-clock, "
        f"{legacy_stats['next_event_calls']} next_event() calls, "
        f"{legacy_stats['dense_ticks']} dense ticks",
        f"  cached scheduler    : {cached_seconds * 1e3:8.1f} ms wall-clock, "
        f"{cached_stats['next_event_calls']} next_event() calls, "
        f"{cached_stats['dense_ticks']} dense ticks",
        f"  speedup             : {speedup:8.1f}x",
        f"  pwm periods elapsed : {cached_soc.pwm.periods_elapsed} (identical under both)",
    ]
    save_result("cached_scheduler_speedup", "\n".join(lines))
    save_kernel_json(
        "legacy_vs_cached",
        {
            "scenario": "figure5-idle + armed PWM",
            "horizon_cycles": IDLE_HORIZON_CYCLES,
            "pwm_period": IDLE_PWM_PERIOD,
            "legacy_seconds": legacy_seconds,
            "cached_seconds": cached_seconds,
            "speedup": speedup,
            "floor": CACHED_MIN_SPEEDUP,
            "legacy_next_event_calls": legacy_stats["next_event_calls"],
            "cached_next_event_calls": cached_stats["next_event_calls"],
            "legacy_dense_ticks": legacy_stats["dense_ticks"],
            "cached_dense_ticks": cached_stats["dense_ticks"],
        },
    )

    # Cycle-exactness first: both kernels replay the same hardware history.
    assert legacy_soc.pwm.periods_elapsed == cached_soc.pwm.periods_elapsed
    assert (
        legacy_soc.pwm.regs.reg("COUNT").value == cached_soc.pwm.regs.reg("COUNT").value
    )
    assert legacy_soc.cpu.sleep_cycles == cached_soc.cpu.sleep_cycles
    # The cached scheduler must eliminate the per-period polling...
    assert cached_stats["next_event_calls"] * 100 < legacy_stats["next_event_calls"]
    # ...and convert that into wall-clock.
    assert speedup >= CACHED_MIN_SPEEDUP
