"""E12 — Batched multi-instance execution on pipeline-clock-ratio.

Runs the full ``pipeline-clock-ratio`` campaign (56 points: 4 clock ratios
x 2 sampling periods x 7 horizon depths) two ways:

* **per-instance**: :func:`~repro.sweep.execute.run_point` over every point,
  each building and simulating its own SoC — the solo reference;
* **batched** (the sweep executor): the points of one (ratio, period) pair share a
  single prepared simulation; only the 70k-cycle horizon is actually
  simulated, and the six shorter horizons are snapshotted in passing.

With the seven-step horizon ladder (10k..70k) the per-instance executor
simulates 1+2+...+7 = 28 units of work per group where the batched one
simulates 7, so the structural ceiling is 4.0x; the floor asserts 3.0x.
The aggregated artifacts must be byte-identical across both — which
``tests/sweep/test_batch.py`` pins for every registry campaign; here it
guards the measurement itself.

Each pass is scored in CPU seconds of this process, and the speedup is the
median ratio of three counterbalanced (solo, batched) pairs.

Results are appended to ``results/BENCH_kernel.json`` (``batch_speedup``
section) for the CI perf-regression job.
"""

import json
import statistics
import time

from repro.sweep import campaign, execute_campaign, expand_campaign, point_record
from repro.sweep.execute import run_point

CAMPAIGN = "pipeline-clock-ratio"
GROUPS = 8
MIN_BATCH_SPEEDUP = 3.0
PAIRS = 3


def _solo():
    return [run_point(point) for point in expand_campaign(campaign(CAMPAIGN))]


def _batched():
    return execute_campaign(campaign(CAMPAIGN), jobs=1)


def _cpu_timed(run):
    """Run ``run`` and return (CPU seconds of this process, its result).

    CPU time rather than wall time: both passes run in this process, and
    on a shared host the wall clock also counts the time other processes
    hold the cores, which drifts between back-to-back passes.
    """
    start = time.process_time()
    outcome = run()
    return time.process_time() - start, outcome


def _records(points):
    return json.dumps([point_record(point) for point in points], sort_keys=True)


def test_bench_batched_execution_speedup(save_result, save_kernel_json):
    spec = campaign(CAMPAIGN)
    assert spec.n_points == 56

    # Three counterbalanced pairs (solo first, batched first, solo first),
    # each scored as a CPU-time ratio; the speedup is the median ratio, so
    # one disturbed pass cannot move it.
    ratios = []
    serial_times = []
    batched_times = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            serial_seconds, serial = _cpu_timed(_solo)
            batched_seconds, batched = _cpu_timed(_batched)
        else:
            batched_seconds, batched = _cpu_timed(_batched)
            serial_seconds, serial = _cpu_timed(_solo)
        serial_times.append(serial_seconds)
        batched_times.append(batched_seconds)
        ratios.append(serial_seconds / max(batched_seconds, 1e-9))
    speedup = statistics.median(ratios)
    serial_seconds = statistics.median(serial_times)
    batched_seconds = statistics.median(batched_times)

    assert _records(batched.points) == _records(serial)
    assert batched.batched_points == spec.n_points

    serial_rate = spec.n_points / serial_seconds
    batched_rate = spec.n_points / batched_seconds
    save_kernel_json(
        "batch_speedup",
        {
            "campaign": CAMPAIGN,
            "n_points": spec.n_points,
            "groups": GROUPS,
            "serial_seconds": serial_seconds,
            "batched_seconds": batched_seconds,
            "serial_points_per_second": serial_rate,
            "batched_points_per_second": batched_rate,
            "speedup": speedup,
            "pair_speedups": ratios,
            "floor": MIN_BATCH_SPEEDUP,
        },
    )
    save_result(
        "batch_execution_speedup",
        "\n".join(
            [
                f"Batched execution on {CAMPAIGN} ({spec.n_points} points, "
                f"{GROUPS} shared-prefix groups x 7 horizons):",
                f"  per-instance (run_point)    : {serial_seconds * 1e3:8.1f} ms CPU "
                f"({serial_rate:.2f} points/s)",
                f"  batched (sweep)             : {batched_seconds * 1e3:8.1f} ms CPU "
                f"({batched_rate:.2f} points/s, {speedup:.2f}x median of {PAIRS} pairs)",
                "  structural ceiling          :     4.00x (28 vs 7 work units per group)",
                "  aggregated artifacts        : byte-identical",
            ]
        ),
    )

    assert speedup >= MIN_BATCH_SPEEDUP
