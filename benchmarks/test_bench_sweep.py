"""E11 — Sweep sharding: the pool's group-cut tasks must never lose to serial.

Runs a 12-point dense-kernel campaign (dense points are compute-heavy, so
pool overhead is measurable but amortisable) serially and with a 2-worker
request, checks the aggregated results are identical, and asserts the
execution-policy contract:

* on a single-core host the pool is clamped away entirely, so ``--jobs 2``
  degenerates to the serial path and must be *no slower* than ``--jobs 1``
  (the pre-chunking dispatcher measured 0.86x here);
* where two or more cores exist, the pool's tasks (whole batch groups cut
  by cost, :data:`~repro.sweep.execute.TASKS_PER_WORKER` per worker) must
  deliver near-linear throughput (floor 1.5x).

The measurements are appended to ``results/BENCH_kernel.json`` for the CI
perf-regression job, next to the human-readable txt artifact.
"""

import os
import time

from repro.sweep import CampaignSpec, batch_groups, cut_groups, execute_campaign, expand_campaign, results_payload
from repro.sweep.campaign import estimate_costs
from repro.sweep.execute import TASKS_PER_WORKER

BENCH_SPEC = CampaignSpec(
    name="bench-sharding",
    description="dense duty-cycled-logging points for the sharding benchmark",
    scenario="duty-cycled-logging",
    dense=True,
    grid={
        "horizon_cycles": (20_000, 30_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
        "words_per_readout": (4, 8),
    },
)

JOBS = 2
# Serial/sharded pairs, interleaved; each configuration is scored by its min.
PAIRS = 3
# Linear would be 2.0x; CI runners are shared and noisy, so assert a robust
# floor the same way the event-kernel benchmark asserts 3x of a measured 50x.
MIN_MULTICORE_SPEEDUP = 1.5
# Single-core hosts run both configurations through the identical serial
# path; the margin only absorbs timing noise between the two passes.
MIN_SINGLE_CORE_SPEEDUP = 0.9


def _timed(jobs):
    start = time.perf_counter()
    result = execute_campaign(BENCH_SPEC, jobs=jobs)
    return time.perf_counter() - start, result


def test_bench_sweep_sharding_speedup(save_result, save_kernel_json):
    assert BENCH_SPEC.n_points >= 12

    # PAIRS passes per configuration, interleaved in counterbalanced order
    # (serial, sharded, sharded, serial, serial, sharded, ...) and scored by
    # the min: dense campaigns are seconds-long, and shared hosts drift tens
    # of percent between back-to-back passes — always measuring one
    # configuration second would bias the ratio, and two passes each left
    # the 1.5x floor within reach of one slow pass.
    walls = {1: [], JOBS: []}
    results = {}
    for pair in range(PAIRS):
        for jobs in (1, JOBS) if pair % 2 == 0 else (JOBS, 1):
            seconds, results[jobs] = _timed(jobs)
            walls[jobs].append(seconds)
    serial, sharded = results[1], results[JOBS]
    serial_seconds = min(walls[1])
    sharded_seconds = min(walls[JOBS])

    speedup = serial_seconds / max(sharded_seconds, 1e-9)
    cores = os.cpu_count() or 1
    # The pool's task count, as execute_campaign cuts it for this host.
    workers = min(JOBS, cores)
    groups = batch_groups(expand_campaign(BENCH_SPEC))
    tasks = len(cut_groups(groups, estimate_costs(groups, {}), TASKS_PER_WORKER * workers if workers > 1 else 1))
    lines = [
        f"Sweep sharding on {BENCH_SPEC.n_points} dense duty-cycled-logging points "
        f"({JOBS}-worker request, {tasks} task(s), {cores} core(s) available, "
        f"best of {PAIRS} interleaved pairs):",
        f"  serial (--jobs 1)   : {serial_seconds * 1e3:8.1f} ms wall-clock",
        f"  sharded (--jobs {JOBS})  : {sharded_seconds * 1e3:8.1f} ms wall-clock",
        f"  speedup             : {speedup:8.2f}x",
        f"  aggregated results  : identical ({serial.n_points} points)",
    ]
    save_result("sweep_sharding_speedup", "\n".join(lines))

    save_kernel_json(
        "sweep_sharding",
        {
            "n_points": BENCH_SPEC.n_points,
            "jobs": JOBS,
            "tasks": tasks,
            "cores": cores,
            "serial_seconds": serial_seconds,
            "sharded_seconds": sharded_seconds,
            "speedup": speedup,
            "floor": MIN_MULTICORE_SPEEDUP if cores >= JOBS else MIN_SINGLE_CORE_SPEEDUP,
        },
    )

    # Sharding must never change the results...
    assert results_payload(serial) == results_payload(sharded)
    # ...must never lose to serial (the PR-2 dispatcher did, 0.86x on 1 core)...
    assert speedup >= MIN_SINGLE_CORE_SPEEDUP
    # ...and must deliver near-linear throughput where the cores exist.
    if cores >= JOBS:
        assert speedup >= MIN_MULTICORE_SPEEDUP
