"""repro.fleet — fault-tolerant autonomous campaign orchestration.

The fleet drives a whole sweep campaign through ordinary ``sweep --shard``
workers: cost-weighted cuts of whole batch groups, local subprocess
workers, heartbeat supervision with timeouts and kill discipline,
validation-driven acceptance, heal-driven retry with exponential backoff,
and graceful degradation to partial artifacts when the retry budget runs
out.  With ``--store DB``
every accepted shard is also ingested into the results store
(:mod:`repro.store`) the moment validation accepts it.  Entry point:
``python -m repro.run fleet <campaign> --workers N``.

Module map:

* :mod:`~repro.fleet.cost` — the price list for cuts of whole batch
  groups: timings scavenged from past manifests and, with ``--store``,
  from the results store;
* :mod:`~repro.fleet.transport` — how one shard runs (a local subprocess
  behind a pollable, killable handle);
* :mod:`~repro.fleet.supervisor` — bounded concurrency, deadlines, kills,
  exit classification;
* :mod:`~repro.fleet.controller` — the orchestration loop itself;
* :mod:`~repro.fleet.ledger` — the ``fleet.json`` audit trail and its
  ``fleet status`` rendering.
"""

from repro.sweep.campaign import cut_shards
from repro.fleet.controller import (
    CHAOS_FAULTS,
    CORRUPT_ARTIFACTS,
    COMPLETED,
    EXIT_COMPLETE,
    EXIT_PARTIAL,
    PARTIAL_DELIVERY,
    FleetConfig,
    FleetResult,
    parse_chaos,
    run_fleet,
)
from repro.fleet.cost import scavenge_point_walls, store_point_walls
from repro.fleet.ledger import (
    FLEET_JSON,
    LEDGER_SCHEMA_VERSION,
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    FleetLedger,
    load_ledger,
    render_ledger,
)
from repro.fleet.supervisor import (
    CRASH,
    EXITED,
    NONZERO_EXIT,
    TIMEOUT,
    Attempt,
    Supervisor,
)
from repro.fleet.transport import WorkerHandle, WorkerSpec, default_worker_argv, launch_local

__all__ = [
    "CHAOS_FAULTS",
    "COMPLETED",
    "CORRUPT_ARTIFACTS",
    "CRASH",
    "EXIT_COMPLETE",
    "EXIT_PARTIAL",
    "EXITED",
    "FLEET_JSON",
    "LEDGER_SCHEMA_VERSION",
    "NONZERO_EXIT",
    "PARTIAL_DELIVERY",
    "STATUS_COMPLETE",
    "STATUS_PARTIAL",
    "TIMEOUT",
    "Attempt",
    "FleetConfig",
    "FleetLedger",
    "FleetResult",
    "Supervisor",
    "WorkerHandle",
    "WorkerSpec",
    "cut_shards",
    "default_worker_argv",
    "launch_local",
    "load_ledger",
    "parse_chaos",
    "render_ledger",
    "run_fleet",
    "scavenge_point_walls",
    "store_point_walls",
]
