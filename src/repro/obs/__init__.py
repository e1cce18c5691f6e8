"""repro.obs — the unified telemetry layer.

Four small, dependency-free pieces give every layer of the system (the
simulation kernel, the batch loop, the sweep executor, the CLI) one
observability vocabulary:

* :mod:`repro.obs.metrics` — a **metrics registry**: counters and
  histograms with labels, ``KERNEL_STAT_KEYS`` (the one key set of the
  kernel's plain-dict ``kernel_stats``, which every kernel mode must
  agree on), and :func:`~repro.obs.metrics.fold_telemetry`, the one fold
  of ``{"profile": …, "metrics": …}`` blocks that the sweep executor, the
  shard merge and the fleet ledger share.
* :mod:`repro.obs.tracing` — **structured span tracing**: a process-global
  :class:`~repro.obs.tracing.SpanTracer` that instrumented code consults
  through ``tracing.TRACER``.  Every cold region is one
  ``with tracing.span(name, cat, **args):`` block; ``Simulator.step`` and
  the batch loop check ``TRACER`` once per call.  When no tracer is
  installed (the default), that check is the whole cost — enforced below
  5% by ``benchmarks/test_bench_telemetry.py``.  When installed, spans
  (plan builds, quiescent/skip/dense spans, batch runs and snapshot stops,
  sweep enrolment, points and campaigns, and the results store's
  ``store.ingest``/``store.query`` operations) buffer in memory per
  process.
* :mod:`repro.obs.traceio` — export, validation, and merging of the
  buffered spans as **Chrome trace-event JSON** (``--trace-out trace.json``,
  loadable in Perfetto / ``chrome://tracing``), with per-worker process
  lanes and a ``sweep merge``-aware combiner that stitches shard traces
  into one document.
* :mod:`repro.obs.profile` — the sweep executor's **per-phase wall-time
  breakdown** (expand, prepare, simulate, finalize, write) that every
  sweep records into the manifest's ``execution.telemetry`` block and
  ``python -m repro.run stats`` renders.

Telemetry is strictly *observational*: it must not perturb results.
``results.json``/``results.csv`` of a traced campaign are byte-identical
to an untraced run (pinned by ``tests/sweep/test_telemetry.py`` and the
``telemetry-smoke`` CI job); telemetry output lands only in the manifest,
the trace file, and stderr.

Full documentation: ``docs/observability.md``.
"""

from repro.obs.metrics import KERNEL_STAT_KEYS, MetricsRegistry, fold_telemetry
from repro.obs.profile import SWEEP_PHASES, PhaseTimer, format_profile
from repro.obs.tracing import SpanTracer, capture, install, uninstall
from repro.obs.traceio import (
    TRACE_SCHEMA,
    merge_trace_documents,
    summarize_trace,
    trace_document,
    validate_trace,
    validate_trace_file,
    write_trace,
)

__all__ = [
    "KERNEL_STAT_KEYS",
    "MetricsRegistry",
    "PhaseTimer",
    "SWEEP_PHASES",
    "SpanTracer",
    "TRACE_SCHEMA",
    "capture",
    "fold_telemetry",
    "format_profile",
    "install",
    "merge_trace_documents",
    "summarize_trace",
    "trace_document",
    "uninstall",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
]
