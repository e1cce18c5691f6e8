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

Both are wall-clock ratios, so another busy process on the host could fail
them.  Each pass therefore also measures the CPU that the rest of the host
took from this process's CPUs while it ran (``/proc/stat`` less this
process tree's own CPU time), and only passes with less than
:data:`NEIGHBOUR_LIMIT` cores taken are scored.  When either configuration
has no such pass, the run is recorded with ``"scored": false`` and asserts
only that the results are identical.  Where ``/proc/stat`` cannot be read,
every pass counts as uncontended.

The measurements are appended to ``results/BENCH_kernel.json`` for the CI
perf-regression job, next to the human-readable txt artifact.
"""

import os
import resource
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
# Cores other processes may take, on average over a pass, for it to be
# scored.  An idle host reads about 0.02; a neighbour that takes a quarter
# of a core already pulls a 2-worker pass below the 1.5x floor.
NEIGHBOUR_LIMIT = 0.1


def _host_busy_seconds():
    """CPU seconds this process's CPUs have spent busy (steal included), or
    ``None`` where ``/proc/stat`` cannot be read."""
    cpus = {f"cpu{index}" for index in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = 0
            for line in stat:
                name, *fields = line.split()
                if name in cpus:
                    values = [int(field) for field in fields[:8]]
                    ticks += sum(values) - values[3] - values[4]  # less idle and iowait
    except OSError:
        return None
    return ticks / os.sysconf("SC_CLK_TCK")


def _own_cpu_seconds():
    """CPU seconds of this process and of its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _timed(jobs):
    """One pass: its wall seconds, the cores other processes took meanwhile,
    and the result."""
    host, own = _host_busy_seconds(), _own_cpu_seconds()
    start = time.perf_counter()
    result = execute_campaign(BENCH_SPEC, jobs=jobs)
    seconds = time.perf_counter() - start
    if host is None:
        return seconds, 0.0, result
    taken = _host_busy_seconds() - host - (_own_cpu_seconds() - own)
    return seconds, max(taken, 0.0) / seconds, result


def test_bench_sweep_sharding_speedup(save_result, save_kernel_json):
    assert BENCH_SPEC.n_points >= 12

    # PAIRS passes per configuration, interleaved in counterbalanced order
    # (serial, sharded, sharded, serial, serial, sharded, ...) and scored by
    # the min over the uncontended ones: dense campaigns are seconds-long,
    # and shared hosts drift tens of percent between back-to-back passes —
    # always measuring one configuration second would bias the ratio, and
    # two passes each left the 1.5x floor within reach of one slow pass.
    walls = {1: [], JOBS: []}
    neighbours = {1: [], JOBS: []}
    results = {}
    for pair in range(PAIRS):
        for jobs in (1, JOBS) if pair % 2 == 0 else (JOBS, 1):
            seconds, taken, results[jobs] = _timed(jobs)
            walls[jobs].append(seconds)
            neighbours[jobs].append(taken)
    serial, sharded = results[1], results[JOBS]
    clean = {
        jobs: [wall for wall, taken in zip(walls[jobs], neighbours[jobs]) if taken < NEIGHBOUR_LIMIT]
        for jobs in walls
    }
    scored = all(clean.values())
    scored_walls = clean if scored else walls
    serial_seconds = min(scored_walls[1])
    sharded_seconds = min(scored_walls[JOBS])

    speedup = serial_seconds / max(sharded_seconds, 1e-9)
    cores = os.cpu_count() or 1
    floor = MIN_MULTICORE_SPEEDUP if cores >= JOBS else MIN_SINGLE_CORE_SPEEDUP
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
        f"  speedup             : {speedup:8.2f}x"
        + ("" if scored else f" (not scored: others took >= {NEIGHBOUR_LIMIT} cores in every pass of one side)"),
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
            "floor": floor,
            "scored": scored,
            "neighbour_limit": NEIGHBOUR_LIMIT,
            "neighbour_cores": {
                "serial": [round(taken, 3) for taken in neighbours[1]],
                "sharded": [round(taken, 3) for taken in neighbours[JOBS]],
            },
        },
    )

    # Sharding must never change the results...
    assert results_payload(serial) == results_payload(sharded)
    if scored:
        # ...must never lose to serial (an earlier dispatcher did, 0.86x on
        # 1 core), and must deliver near-linear throughput where the cores
        # exist.
        assert speedup >= floor
