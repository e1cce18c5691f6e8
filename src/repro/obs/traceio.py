"""Chrome trace-event JSON export, validation, and shard merging.

The on-disk format is the Chrome/Perfetto *JSON object* flavour::

    {"schema": "repro-trace/1",
     "displayTimeUnit": "ms",
     "metadata": {"tool": "repro.obs", "dropped_events": 0, ...},
     "traceEvents": [
       {"ph": "M", "name": "process_name", "pid": 1234, "tid": 0,
        "args": {"name": "worker-1234"}},
       {"ph": "X", "name": "kernel.span", "cat": "kernel",
        "ts": 12.5, "dur": 3.2, "pid": 1234, "tid": 0,
        "args": {"cycles": 1999}},
       {"ph": "X", "name": "batch.stop", "cat": "batch",
        "ts": 80.1, "dur": 0.4, "pid": 1234, "tid": 0,
        "args": {"label": "multi-link-pipeline#0", "cycle": 10000}}]}

Open it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; each
worker process renders as its own lane.  ``ts``/``dur`` are microseconds
relative to the document's own zero (every export re-bases its earliest
event to 0, so wall-clock epochs never leak into artifacts and documents
from different hosts line up side by side when merged).

:func:`validate_trace` is the schema contract the CI telemetry job and the
tests enforce; :func:`merge_trace_documents` is the ``sweep merge``-aware
combiner that stitches per-shard documents into one, remapping pids into
disjoint per-shard ranges and prefixing lane names with the shard label.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Stamped into every exported document; bump on incompatible shape changes.
TRACE_SCHEMA = "repro-trace/1"

#: Event phases the exporter emits and the validator accepts: complete
#: spans, counter samples, and metadata records.
_ALLOWED_PHASES = ("X", "C", "M")


def _lane_metadata(events: Sequence[Mapping[str, object]], labels: Mapping[int, str]) -> List[Dict[str, object]]:
    """One ``process_name`` metadata event per distinct pid (first-seen order)."""
    seen: List[int] = []
    for event in events:
        pid = int(event.get("pid", 0))
        if pid not in seen:
            seen.append(pid)
    return [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": labels.get(pid, f"process-{pid}")},
        }
        for pid in seen
    ]


def _rebase(events: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Copy ``events`` with timestamps re-based so the earliest is 0."""
    stamps = [float(event["ts"]) for event in events if "ts" in event]
    origin = min(stamps) if stamps else 0.0
    rebased = []
    for event in events:
        record = dict(event)
        if "ts" in record:
            record["ts"] = float(record["ts"]) - origin
        rebased.append(record)
    return rebased


def trace_document(
    events: Sequence[Mapping[str, object]],
    labels: Optional[Mapping[int, str]] = None,
    metadata: Optional[Mapping[str, object]] = None,
    dropped: int = 0,
) -> Dict[str, object]:
    """Assemble buffered events into one exportable trace document.

    ``labels`` maps pids to human lane names (``{pid: "worker-0"}``);
    unlabelled pids get ``process-<pid>``.  ``dropped`` records how many
    events the tracer discarded at its buffer cap — a truncated trace must
    say so rather than pass for a complete one.
    """
    rebased = _rebase(list(events))
    rebased.sort(key=lambda event: (float(event.get("ts", 0.0)), int(event.get("pid", 0))))
    document_metadata: Dict[str, object] = {"tool": "repro.obs", "dropped_events": dropped}
    if metadata:
        document_metadata.update(metadata)
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "metadata": document_metadata,
        "traceEvents": _lane_metadata(rebased, dict(labels or {})) + rebased,
    }


def write_trace(path: Path, document: Mapping[str, object]) -> Path:
    """Write one trace document as JSON; return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def validate_trace(document: object) -> Dict[str, object]:
    """Validate a trace document against the documented schema.

    Returns the document (typed as a dict) when valid; raises ``ValueError``
    naming the first offending event otherwise.  This is the contract the
    ``telemetry-smoke`` CI job and ``tests/sweep/test_telemetry.py`` hold
    every exported (and merged) trace to.
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    if document.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"trace schema {document.get('schema')!r} != {TRACE_SCHEMA!r}"
        )
    metadata = document.get("metadata")
    if not isinstance(metadata, dict) or "dropped_events" not in metadata:
        raise ValueError("trace metadata must be an object with dropped_events")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            raise ValueError(f"{where}: ph {phase!r} not in {_ALLOWED_PHASES}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            raise ValueError(f"{where}: pid/tid must be integers")
        if phase == "M":
            continue
        if not isinstance(event.get("cat"), str) or not event["cat"]:
            raise ValueError(f"{where}: missing cat")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: dur must be a non-negative number")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: counter events need an args object")
    return document


def validate_trace_file(path: Path) -> Dict[str, object]:
    """Load and validate one trace JSON file; return the document."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: unreadable trace file: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return validate_trace(document)


def merge_trace_documents(
    documents: Sequence[Mapping[str, object]], labels: Sequence[str]
) -> Dict[str, object]:
    """Stitch per-shard trace documents into one (the ``sweep merge`` path).

    Each input document's process lanes are remapped into a disjoint pid
    range (shard ``i`` occupies ``1000 * (i + 1) + k`` for its ``k``-th
    first-seen pid) and its lane names are prefixed with the shard's label,
    so a merged trace shows every shard's workers side by side on one
    re-based timeline.  Dropped-event counts accumulate.
    """
    if len(documents) != len(labels):
        raise ValueError("one label per trace document required")
    merged_events: List[Dict[str, object]] = []
    lane_labels: Dict[int, str] = {}
    dropped = 0
    for position, (document, label) in enumerate(zip(documents, labels)):
        validate_trace(document)
        metadata = document["metadata"]
        dropped += int(metadata.get("dropped_events", 0))
        names: Dict[int, str] = {}
        remap: Dict[int, int] = {}
        for event in document["traceEvents"]:
            pid = int(event["pid"])
            if event.get("ph") == "M" and event.get("name") == "process_name":
                names[pid] = str(event.get("args", {}).get("name", f"process-{pid}"))
                continue
            if pid not in remap:
                remap[pid] = 1000 * (position + 1) + len(remap)
            record = dict(event)
            record["pid"] = remap[pid]
            merged_events.append(record)
        for pid, new_pid in remap.items():
            lane_labels[new_pid] = f"{label}/{names.get(pid, f'process-{pid}')}"
    return trace_document(
        merged_events,
        labels=lane_labels,
        metadata={"merged_from": list(labels)},
        dropped=dropped,
    )


def summarize_trace(document: Mapping[str, object]) -> Dict[str, object]:
    """Per-category event counts and total span time (for ``run stats``)."""
    categories: Dict[str, Dict[str, float]] = {}
    spans = 0
    for event in document.get("traceEvents", ()):
        if event.get("ph") == "M":
            continue
        cat = str(event.get("cat", "?"))
        entry = categories.setdefault(cat, {"events": 0, "span_ms": 0.0})
        entry["events"] += 1
        if event.get("ph") == "X":
            spans += 1
            entry["span_ms"] += float(event.get("dur", 0.0)) / 1000.0
    return {
        "spans": spans,
        "dropped_events": int(document.get("metadata", {}).get("dropped_events", 0)),
        "categories": categories,
    }
