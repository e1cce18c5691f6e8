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

Results are appended to ``results/BENCH_kernel.json`` (``batch_speedup``
section) for the CI perf-regression job.
"""

import json
import time

from repro.sweep import campaign, execute_campaign, expand_campaign, point_record
from repro.sweep.execute import run_point

CAMPAIGN = "pipeline-clock-ratio"
GROUPS = 8
MIN_BATCH_SPEEDUP = 3.0


def _timed_solo():
    points = expand_campaign(campaign(CAMPAIGN))
    start = time.perf_counter()
    results = [run_point(point) for point in points]
    return time.perf_counter() - start, results


def _timed_batched():
    start = time.perf_counter()
    result = execute_campaign(campaign(CAMPAIGN), jobs=1)
    return time.perf_counter() - start, result


def _records(points):
    return json.dumps([point_record(point) for point in points], sort_keys=True)


def test_bench_batched_execution_speedup(save_result, save_kernel_json):
    spec = campaign(CAMPAIGN)
    assert spec.n_points == 56

    # Counterbalanced order (serial, batched, batched, serial), scored by the
    # min of each pair: the passes are seconds long and shared hosts drift
    # between back-to-back measurements.
    serial_a, serial = _timed_solo()
    batched_a, batched = _timed_batched()
    batched_b, _ = _timed_batched()
    serial_b, _ = _timed_solo()
    serial_seconds = min(serial_a, serial_b)
    batched_seconds = min(batched_a, batched_b)

    assert _records(batched.points) == _records(serial)
    assert batched.batched_points == spec.n_points

    speedup = serial_seconds / max(batched_seconds, 1e-9)
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
            "floor": MIN_BATCH_SPEEDUP,
        },
    )
    save_result(
        "batch_execution_speedup",
        "\n".join(
            [
                f"Batched execution on {CAMPAIGN} ({spec.n_points} points, "
                f"{GROUPS} shared-prefix groups x 7 horizons):",
                f"  per-instance (run_point)    : {serial_seconds * 1e3:8.1f} ms "
                f"({serial_rate:.2f} points/s)",
                f"  batched (sweep)             : {batched_seconds * 1e3:8.1f} ms "
                f"({batched_rate:.2f} points/s, {speedup:.2f}x)",
                "  structural ceiling          :     4.00x (28 vs 7 work units per group)",
                "  aggregated artifacts        : byte-identical",
            ]
        ),
    )

    assert speedup >= MIN_BATCH_SPEEDUP
