"""Structured span tracing with a zero-overhead disabled mode.

Instrumented code — the kernel's span loop, the batch round loop, the sweep
executor, the store — consults the process-global :data:`TRACER`.  When no
tracer is installed (the default) that check is the *entire* cost of the
telemetry layer: a cold region (a plan build, a batch run, a sweep point)
pays one :func:`span` entry, and the span loop of ``Simulator.step`` one
``is None`` check per call;
``benchmarks/test_bench_telemetry.py`` measures the disabled ``step()``
against the raw span loop and asserts it stays under 5%.  When a tracer is
installed (``--trace-out``, :func:`capture`), events buffer in memory as
Chrome trace-event dicts and are exported by :mod:`repro.obs.traceio`.

The idiom for a traced region::

    from repro.obs import tracing
    ...
    with tracing.span("batch.run", "batch", instances=n) as args:
        ...                          # the region's work
        args["rounds"] = rounds      # results attached before the span closes

Buffers are per process: a multiprocessing sweep worker installs its own
tracer, drains it into the chunk outcome, and the parent stitches every
worker's events into one document with per-worker process lanes (the pid
recorded on each event at emission time).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

#: Hard cap on buffered events per tracer: a runaway trace (a dense run
#: with millions of boundaries) degrades to a counted drop, never to
#: unbounded memory.  Generous enough that every campaign in this repo
#: stays far below it.
DEFAULT_MAX_EVENTS = 1_000_000


class SpanTracer:
    """An in-memory buffer of Chrome trace events for one process.

    Events are plain dicts in the Chrome trace-event format (``ph: "X"``
    complete events with microsecond ``ts``/``dur``), stamped with this
    process's pid so multi-process traces merge into per-worker lanes.
    Timestamps come from ``perf_counter_ns`` — they are comparable *within*
    a process; the exporter re-bases each process lane so merged documents
    line up at zero.
    """

    __slots__ = ("events", "dropped", "pid")

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self.dropped = 0
        self.pid = os.getpid()

    # The clock instrumented call sites use for start stamps.
    now_ns = staticmethod(time.perf_counter_ns)

    def event(
        self,
        name: str,
        cat: str,
        start_ns: int,
        dur_ns: int,
        args: Optional[Mapping[str, object]] = None,
        tid: int = 0,
    ) -> None:
        """Record one complete ("X") span event."""
        if len(self.events) >= DEFAULT_MAX_EVENTS:
            self.dropped += 1
            return
        record: Dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_ns / 1_000.0,
            "dur": max(dur_ns, 0) / 1_000.0,
            "pid": self.pid,
            "tid": tid,
        }
        if args:
            record["args"] = dict(args)
        self.events.append(record)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear the buffered events (drop counter kept)."""
        events, self.events = self.events, []
        return events


#: The process-global tracer instrumented code checks.  ``None`` (the
#: default) disables tracing; :func:`span` and ``Simulator.step`` fetch it
#: once per entry.
TRACER: Optional[SpanTracer] = None


@contextmanager
def span(name: str, cat: str, **args: object) -> Iterator[Dict[str, object]]:
    """Emit one complete event around the body when a tracer is installed.

    Yields the (mutable) args mapping so the body can attach results (e.g.
    the number of cycles a run actually advanced).  The event is emitted
    even when the body raises; with no tracer installed the body just runs.
    """
    tracer = TRACER
    if tracer is None:
        yield args
        return
    start = tracer.now_ns()
    try:
        yield args
    finally:
        tracer.event(name, cat, start, tracer.now_ns() - start, args)


def install(tracer: Optional[SpanTracer] = None) -> SpanTracer:
    """Install (and return) the process-global tracer.

    Installing over an existing tracer replaces it — callers that need
    nesting semantics should use :func:`capture`, which restores the
    previous tracer on exit.
    """
    global TRACER
    TRACER = tracer if tracer is not None else SpanTracer()
    return TRACER


def uninstall() -> Optional[SpanTracer]:
    """Remove and return the process-global tracer (``None`` if none)."""
    global TRACER
    tracer, TRACER = TRACER, None
    return tracer


@contextmanager
def capture() -> Iterator[SpanTracer]:
    """Install a fresh tracer for the body, restoring the prior one after.

    The yielded tracer holds every event emitted in the body (drain it
    before or after exit)."""
    global TRACER
    previous = TRACER
    tracer = SpanTracer()
    TRACER = tracer
    try:
        yield tracer
    finally:
        TRACER = previous
