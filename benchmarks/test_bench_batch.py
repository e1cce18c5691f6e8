"""E12 — Batched multi-instance execution on pipeline-clock-ratio.

Runs the full ``pipeline-clock-ratio`` campaign (56 points: 4 clock ratios
x 2 sampling periods x 7 horizon depths) through two executors:

* **per-instance** (``--batch off``): every point builds and simulates its
  own SoC — the pre-batching behaviour;
* **batched** (the default): the points of one (ratio, period) pair share a
  single prepared simulation under one interned schedule plan; only the
  70k-cycle horizon is actually simulated, and the six shorter horizons are
  snapshotted in passing.

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

from repro.sweep import campaign, execute_campaign, results_payload

CAMPAIGN = "pipeline-clock-ratio"
GROUPS = 8
MIN_BATCH_SPEEDUP = 3.0


def _timed(batch):
    start = time.perf_counter()
    result = execute_campaign(campaign(CAMPAIGN), jobs=1, batch=batch)
    return time.perf_counter() - start, result


def test_bench_batched_execution_speedup(save_result, save_kernel_json):
    spec = campaign(CAMPAIGN)
    assert spec.n_points == 56

    # Counterbalanced order (serial, batched, batched, serial), scored by the
    # min of each pair: the passes are seconds long and shared hosts drift
    # between back-to-back measurements.
    serial_a, serial = _timed(batch=False)
    batched_a, batched = _timed(batch=True)
    batched_b, _ = _timed(batch=True)
    serial_b, _ = _timed(batch=False)
    serial_seconds = min(serial_a, serial_b)
    batched_seconds = min(batched_a, batched_b)

    reference = json.dumps(results_payload(serial), sort_keys=True)
    assert json.dumps(results_payload(batched), sort_keys=True) == reference
    assert batched.batched_points == spec.n_points
    assert serial.batched_points == 0

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
                f"  per-instance (--batch off)  : {serial_seconds * 1e3:8.1f} ms "
                f"({serial_rate:.2f} points/s)",
                f"  batched (--batch on)        : {batched_seconds * 1e3:8.1f} ms "
                f"({batched_rate:.2f} points/s, {speedup:.2f}x)",
                "  structural ceiling          :     4.00x (28 vs 7 work units per group)",
                "  aggregated artifacts        : byte-identical",
            ]
        ),
    )

    assert speedup >= MIN_BATCH_SPEEDUP
