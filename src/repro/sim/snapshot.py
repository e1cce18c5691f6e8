"""Snapshot/restore of prepared scenarios.

A prepared simulator is plain mutable Python data — the simulator with its
component classification, its :class:`~repro.sim.simulator.SimState`
(base tick, wake-deadline heap, divisors), register-backed component state
and activity/trace recorders — so it pickles whole.
:func:`snapshot_prepared` / :func:`restore_prepared` turn a **prepared
scenario** (the ``PreparedScenario`` objects the batch executor enrolls:
simulator + outcome extractor + drive state) taken at a stop boundary into
a self-describing blob: magic, JSON header (schema version, base tick,
payload length and checksum), then the pickled object graph.

**What a snapshot captures**: everything reachable from the prepared
object — the simulator and its classification fingerprint, its
:class:`SimState` (base tick, classified component lists, authoritative
wake-deadline list + lazy heap, divisors, kernel-stat counters, activity
counters, trace recorder positions), and every component's register/
architectural state.  A restored simulator's fingerprint equals the one it
recomputes, so it continues without re-binding (which would clear its wake
cache).  **What it deliberately drops** (via ``SimState.__getstate__``):
the transient ``_active_component`` marker, which is only ever set inside
a tick/skip dispatch.

Every integrity failure — bad magic, truncation, checksum mismatch, a
stale schema version, an unpicklable or unresolvable class — raises
:class:`SnapshotError` with a named reason.  Callers that must never fail
a run (the plan cache) catch it and fall back to cold preparation.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from dataclasses import dataclass
from typing import Dict, Tuple

#: Bump whenever the snapshot container layout *or* the pickled object
#: graph changes shape (new SimState fields, component refactors that move
#: architectural state).  Stale-version blobs restore as a named
#: :class:`SnapshotError`, which the cache layer turns into a cold start.
SNAPSHOT_SCHEMA_VERSION = 4

#: Container magic: identifies a snapshot blob and pins the container
#: framing (header line + pickle payload) independent of the schema number.
SNAPSHOT_MAGIC = b"REPRO-SNAP\n"


class SnapshotError(Exception):
    """A snapshot blob could not be produced or restored.

    Raised with a named reason for every integrity failure: bad magic,
    truncated payload, checksum mismatch, stale schema version, or a
    payload that does not unpickle.  Deliberately *not* a
    ``SimulationError`` — a snapshot problem is a cache problem, never a
    simulation-correctness problem, and callers downgrade it to a cold
    start.
    """


@dataclass
class RestoredSnapshot:
    """A successfully restored prepared scenario.

    ``prepared`` is the live object (same duck type the scenario
    registry's ``prepare`` hook returns); ``base_tick`` is the simulated
    cycle the snapshot was taken at — a warm consumer resumes simulating
    from there.
    """

    prepared: object
    base_tick: int


def snapshot_prepared(prepared: object) -> bytes:
    """Serialise a prepared scenario (at a stop boundary) into a blob.

    The prepared object must expose ``.simulator`` (every registry
    ``PreparedScenario`` does).  Taking a snapshot never mutates the
    prepared object — the simulator keeps running afterwards exactly as if
    no snapshot had been taken.
    """
    simulator = getattr(prepared, "simulator", None)
    if simulator is None:
        raise SnapshotError(f"{type(prepared).__name__} has no .simulator to snapshot")
    try:
        buffer = io.BytesIO()
        pickle.dump(prepared, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"prepared scenario is not picklable: {exc!r}") from exc
    payload = buffer.getvalue()
    header = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "base_tick": int(simulator.current_cycle),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return SNAPSHOT_MAGIC + header_line + b"\n" + payload


def read_header(blob: bytes) -> Tuple[Dict[str, object], bytes]:
    """Split a blob into its validated JSON header and raw pickle payload.

    Checks magic, header framing, schema version, payload length, and the
    payload checksum — every failure is a named :class:`SnapshotError`.
    The pickle payload is *not* deserialised here.
    """
    if not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("bad magic: not a snapshot blob")
    rest = blob[len(SNAPSHOT_MAGIC) :]
    newline = rest.find(b"\n")
    if newline < 0:
        raise SnapshotError("truncated snapshot: missing header terminator")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
    version = header.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"stale snapshot schema {version!r} (this build writes {SNAPSHOT_SCHEMA_VERSION})"
        )
    payload = rest[newline + 1 :]
    expected_bytes = header.get("payload_bytes")
    if len(payload) != expected_bytes:
        raise SnapshotError(
            f"truncated snapshot payload: {len(payload)} bytes, header says {expected_bytes}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise SnapshotError("corrupt snapshot payload: checksum mismatch")
    return header, payload


def restore_prepared(blob: bytes) -> RestoredSnapshot:
    """Restore a prepared scenario from a :func:`snapshot_prepared` blob.

    Validates the container (magic/version/length/checksum), deserialises
    the object graph, and checks the simulator really is at the header's
    base tick.  Any failure raises :class:`SnapshotError`.
    """
    header, payload = read_header(blob)
    try:
        prepared = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot payload: unpickling failed ({exc!r})") from exc
    simulator = getattr(prepared, "simulator", None)
    if simulator is None:
        raise SnapshotError("restored object has no .simulator")
    base_tick = int(header["base_tick"])
    if simulator.current_cycle != base_tick:
        raise SnapshotError(
            f"restored simulator is at cycle {simulator.current_cycle}, "
            f"header says {base_tick}"
        )
    return RestoredSnapshot(prepared=prepared, base_tick=base_tick)


__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SCHEMA_VERSION",
    "RestoredSnapshot",
    "SnapshotError",
    "read_header",
    "restore_prepared",
    "snapshot_prepared",
]
