"""Snapshot/restore of prepared scenarios: serialisable plans and state.

The plan/state split (:class:`~repro.sim.simulator.SchedulePlan` vs
:class:`~repro.sim.simulator.SimState`) makes a prepared simulator
*portable*: the plan is structural (component classes + hook overrides +
domain slots — serialisable as names, reconstructible in any process) and
the state is plain mutable Python data (base tick, wake-deadline heap,
divisors, register-backed component state, activity/trace recorders).
This module turns that into an on-the-wire format:

* :func:`plan_to_payload` / :func:`plan_from_payload` — a **registry-free,
  versioned JSON serialisation of a plan fingerprint** (component classes
  as ``"module:qualname"`` strings resolved via importlib, in the same
  spirit as ``spec_from_manifest``).  A deserialised plan re-enters the
  process-wide intern table through :meth:`SchedulePlan.adopt`, so a warm
  worker's first resolution counts ``plan_shared`` instead of rebuilding.
* :func:`snapshot_prepared` / :func:`restore_prepared` — a snapshot of a
  whole **prepared scenario** (the ``PreparedScenario`` objects the batch
  executor enrolls: simulator + outcome extractor + drive state) taken at
  a stop boundary, as a self-describing blob: magic, JSON header (schema
  version, base tick, plan payload + digest, payload checksum), then the
  pickled object graph.

**What a snapshot captures**: everything reachable from the prepared
object — the simulator, its :class:`SimState` (base tick, authoritative
wake-deadline list + lazy heap, divisors, kernel-stat counters, activity
counters, trace recorder positions), and every component's register/
architectural state.  **What it deliberately drops** (via
``SimState.__getstate__``): the transient ``_active_component`` marker,
which is only ever set inside a tick/skip dispatch.

Every integrity failure — bad magic, truncation, checksum mismatch, a
stale schema version, an unresolvable class — raises :class:`SnapshotError`
with a named reason.  Callers that must never fail a run (the plan cache)
catch it and fall back to cold preparation.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.simulator import SchedulePlan

#: Bump whenever the snapshot container layout *or* the pickled object
#: graph changes shape (new SimState fields, component refactors that move
#: architectural state).  Stale-version blobs restore as a named
#: :class:`SnapshotError`, which the cache layer turns into a cold start.
SNAPSHOT_SCHEMA_VERSION = 1

#: Container magic: identifies a snapshot blob and pins the container
#: framing (header line + pickle payload) independent of the schema number.
SNAPSHOT_MAGIC = b"REPRO-SNAP\n"


class SnapshotError(Exception):
    """A snapshot blob could not be produced or restored.

    Raised with a named reason for every integrity failure: bad magic,
    truncated payload, checksum mismatch, stale schema version, or an
    unresolvable component class.  Deliberately *not* a
    ``SimulationError`` — a snapshot problem is a cache problem, never a
    simulation-correctness problem, and callers downgrade it to a cold
    start.
    """


# --------------------------------------------------------------------- plans


def plan_to_payload(plan: SchedulePlan) -> Dict[str, object]:
    """Serialise a plan fingerprint as registry-free, JSON-ready data.

    Component classes are recorded as ``"module:qualname"`` strings —
    resolvable by import in any process with the same code, with no
    central class registry to keep in sync (the ``spec_from_manifest``
    idiom).  The payload is versioned by :data:`SNAPSHOT_SCHEMA_VERSION`
    via the enclosing snapshot header.
    """
    cached_wakes, entries = plan.fingerprint
    return {
        "cached_wakes": bool(cached_wakes),
        "entries": [
            {
                "component": f"{cls.__module__}:{cls.__qualname__}",
                "tick": bool(ticks),
                "next_event": bool(hinted),
                "skip": bool(skips),
                "wake_cacheable": bool(cacheable),
                "domain_slot": int(slot),
            }
            for cls, ticks, hinted, skips, cacheable, slot in entries
        ],
    }


def _resolve_class(spec: str) -> type:
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise SnapshotError(f"malformed component class reference {spec!r}")
    try:
        obj: object = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise SnapshotError(f"cannot resolve component class {spec!r}: {exc}") from exc
    if not isinstance(obj, type):
        raise SnapshotError(f"component class reference {spec!r} is not a class")
    return obj


def plan_from_payload(payload: Dict[str, object]) -> SchedulePlan:
    """Rebuild (and intern) a plan from :func:`plan_to_payload` data.

    Returns the **canonical interned plan** for the fingerprint — if an
    equal plan is already interned in this process, that instance is
    returned so identity-based sharing (``state.bound_plan is plan``)
    keeps working across a restore.
    """
    try:
        entries = tuple(
            (
                _resolve_class(entry["component"]),
                bool(entry["tick"]),
                bool(entry["next_event"]),
                bool(entry["skip"]),
                bool(entry["wake_cacheable"]),
                int(entry["domain_slot"]),
            )
            for entry in payload["entries"]
        )
        fingerprint = (bool(payload["cached_wakes"]), entries)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed plan payload: {exc!r}") from exc
    canonical, _, _ = SchedulePlan.adopt(SchedulePlan(fingerprint))
    return canonical


def plan_digest(plan: SchedulePlan) -> str:
    """Stable content hash of a plan's serialised form."""
    canonical = json.dumps(plan_to_payload(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- snapshots


@dataclass
class RestoredSnapshot:
    """A successfully restored prepared scenario.

    ``prepared`` is the live object (same duck type the scenario
    registry's ``prepare`` hook returns); ``base_tick`` is the simulated
    cycle the snapshot was taken at — a warm consumer resumes simulating
    from there.  ``plan_shared`` reports whether the embedded plan matched
    an already-interned one in this process.
    """

    prepared: object
    base_tick: int
    plan_shared: bool


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
    plan = simulator._plan
    try:
        buffer = io.BytesIO()
        pickle.dump(prepared, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"prepared scenario is not picklable: {exc!r}") from exc
    payload = buffer.getvalue()
    header = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "base_tick": int(simulator.current_cycle),
        "plan": plan_to_payload(plan) if plan is not None else None,
        "plan_digest": plan_digest(plan) if plan is not None else None,
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

    Validates the container (magic/version/length/checksum), rebuilds and
    interns the plan from the header, deserialises the object graph, and
    adopts the canonical interned plan on the restored simulator **without
    rebinding** — ``bind()`` would clear the restored wake cache, and the
    canonical plan's index lists are equal by construction (equal
    fingerprints classify identically), so only the two plan references
    are swapped.  Any failure raises :class:`SnapshotError`.
    """
    header, payload = read_header(blob)
    plan_payload = header.get("plan")
    canonical: Optional[SchedulePlan] = None
    shared = False
    if plan_payload is not None:
        canonical = plan_from_payload(plan_payload)
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
    if canonical is not None and simulator._plan is not None:
        if simulator._plan.fingerprint != canonical.fingerprint:
            raise SnapshotError("restored plan does not match the snapshot header")
        if simulator._plan is not canonical:
            # Adopt the canonical interned instance so the identity check in
            # _schedule_plan keeps skipping rebinds, and later same-topology
            # resolutions in this process count plan_shared.
            shared = True
            simulator._state.bound_plan = canonical
            simulator._plan = canonical
    return RestoredSnapshot(prepared=prepared, base_tick=base_tick, plan_shared=shared)


__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SCHEMA_VERSION",
    "RestoredSnapshot",
    "SnapshotError",
    "plan_digest",
    "plan_from_payload",
    "plan_to_payload",
    "read_header",
    "restore_prepared",
    "snapshot_prepared",
]
