"""repro.store — queryable, persistent corpus of campaign results.

Every sweep/fleet execution emits flat ``results.json``/``results.csv``
per campaign directory; this package folds those artifacts into one
sqlite database (stdlib ``sqlite3``, WAL mode — many concurrent readers,
one writer) keyed by the same ``spec_hash`` + point index + seed identity
that ``--resume`` and ``sweep merge`` already validate:

* :mod:`repro.store.schema` — versioned DDL (``PRAGMA user_version`` +
  ``store_meta``), :func:`connect`;
* :mod:`repro.store.ingest` — idempotent ingestion of full/shard/merged/
  partial artifact directories with sha-keyed dedup and structured
  conflict reporting;
* :mod:`repro.store.query` — filter/project/aggregate/export read API
  plus byte-faithful record reconstruction;
* :mod:`repro.store.resume` — ``--resume-from-store``, sharing manifest
  resume's validation gate;
* :mod:`repro.store.cli` — the ``python -m repro.run store`` subcommands
  (``ingest`` / ``query`` / ``info``).

Store operations emit ``store.ingest`` / ``store.query`` spans through
:mod:`repro.obs.tracing` when a tracer is installed.  See
``docs/store.md`` for the schema reference and query cookbook.
"""

from repro.store.ingest import DirectoryReport, IngestReport, ingest_artifacts, ingest_directories
from repro.store.query import (
    aggregate_rows,
    campaign_points,
    format_rows,
    parse_aggregate,
    parse_filter,
    reconstruct_results_payload,
    select_rows,
    store_info,
)
from repro.store.resume import load_reusable_results_from_store
from repro.store.schema import (
    DEFAULT_STORE_DB,
    STORE_SCHEMA_VERSION,
    SchemaVersionError,
    StoreError,
    connect,
    schema_version,
)

__all__ = [
    "DEFAULT_STORE_DB",
    "DirectoryReport",
    "IngestReport",
    "STORE_SCHEMA_VERSION",
    "SchemaVersionError",
    "StoreError",
    "aggregate_rows",
    "campaign_points",
    "connect",
    "format_rows",
    "ingest_artifacts",
    "ingest_directories",
    "load_reusable_results_from_store",
    "parse_aggregate",
    "parse_filter",
    "reconstruct_results_payload",
    "schema_version",
    "select_rows",
    "store_info",
]
