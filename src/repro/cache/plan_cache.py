"""On-disk prepared-state snapshot cache: fleet-wide warm starts.

A :class:`PlanCache` maps a **batch group** — the unit the sweep executor
already simulates as one instance: (scenario, dense flag, non-horizon
params, horizon list) — to mid-run snapshots of its prepared scenario,
published at the stop boundaries a cold run pauses at anyway.  A warm run
serves every horizon that has an exact-match snapshot straight from the
cache (restore + finalize, zero simulated cycles) and covers any leftover
horizons by simulating from the deepest snapshot below them — a fully
warm cache eliminates the simulation entirely.

**Key scheme.**  ``group_cache_key`` hashes the snapshot schema version
plus the group identity into one sha256 hex digest — computable *before*
any preparation happens, which is the whole point of the warm path.
Entries are laid out as ``<root>/<key[:2]>/<key>/<elapsed>.snap``.

**Never wrong results.**  Every read failure — missing file, corrupt or
truncated blob, stale schema, unresolvable class — is caught, counted in
``counters.errors``, recorded as a note, and answered with the next-best
candidate or a cold start.  Publishes write to a temp file and
``os.replace`` into place (atomic on POSIX), skip keys that already
exist, and swallow their own failures the same way.  The cache can only
ever make a run faster or leave it untouched; byte-identical artifacts
are enforced by the ``cache-smoke`` CI job and
``tests/sweep/test_plan_cache_sweep.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import tracing
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    RestoredSnapshot,
    SnapshotError,
    restore_prepared,
    snapshot_prepared,
)


class CacheError(Exception):
    """A named plan-cache integrity failure.

    Wraps the underlying :class:`~repro.sim.snapshot.SnapshotError` or OS
    error with the cache-entry path.  :class:`PlanCache` raises it only
    through its internal accounting — the public ``lookup``/``publish``
    surface converts every instance into a counted, noted cold-start
    fallback and never lets one escape into a run.
    """


def group_cache_key(
    scenario: str,
    dense: bool,
    params: Mapping[str, object],
    horizons: Sequence[int],
) -> str:
    """Content address for one batch group's snapshot directory.

    Hashes the snapshot schema version (so a schema bump cold-starts the
    whole cache), the scenario name, the dense flag, the sorted
    non-horizon params, and the horizon list.  Horizons are part of the
    identity because a scenario's ``prepare`` hook sizes drive scripts off the full
    horizon list; two campaigns sharing a prefix of horizons get separate
    entries rather than risky reuse.
    """
    material = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "scenario": scenario,
        "dense": bool(dense),
        "params": {str(key): value for key, value in sorted(params.items())},
        "horizons": [int(horizon) for horizon in horizons],
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheCounters:
    """Hit/miss/write/error tallies for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }


class PlanCache:
    """One process's handle on a shared snapshot cache directory.

    Counters and notes accumulate per handle; the sweep executor ships
    them through the chunk outcome into the campaign telemetry and the
    manifest's ``execution.cache`` block, and the fleet controller
    aggregates them across workers into the ledger.
    """

    __slots__ = ("root", "counters", "notes")

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = CacheCounters()
        #: Human-readable records of every swallowed failure
        #: ("<entry>: <why>"), surfaced in the manifest/ledger so silent
        #: fallbacks stay visible.
        self.notes: List[str] = []

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _note(self, path: Path, exc: Exception) -> None:
        self.counters.errors += 1
        note = f"{path.relative_to(self.root)}: {exc}"
        if note not in self.notes:
            self.notes.append(note)

    # ------------------------------------------------------------------ read

    def candidates(self, key: str, max_elapsed: int) -> List[Tuple[int, Path]]:
        """Published snapshots for ``key`` at elapsed ≤ ``max_elapsed``,
        deepest first (the restore order)."""
        directory = self._entry_dir(key)
        found: List[Tuple[int, Path]] = []
        try:
            entries = list(directory.iterdir())
        except OSError:
            return found
        for path in entries:
            if path.suffix != ".snap":
                continue
            try:
                elapsed = int(path.stem)
            except ValueError:
                continue
            if 0 < elapsed <= max_elapsed:
                found.append((elapsed, path))
        found.sort(reverse=True)
        return found

    def lookup(
        self, key: str, max_elapsed: int, exact: bool = False
    ) -> Optional[RestoredSnapshot]:
        """Restore the deepest usable snapshot at elapsed ≤ ``max_elapsed``.

        Walks candidates deepest-first; a corrupt/truncated/stale entry is
        counted, noted, and skipped in favour of the next shallower one.
        Returns ``None`` (a counted miss) when nothing restores — the
        caller cold-starts.  With ``exact=True`` only the entry at exactly
        ``max_elapsed`` qualifies — the probe the executor uses to serve a
        horizon's points without simulating anything at all.
        """
        tracer = tracing.TRACER
        start_ns = tracer.now_ns() if tracer is not None else 0
        candidates = self.candidates(key, max_elapsed)
        if exact:
            candidates = [(e, path) for e, path in candidates if e == max_elapsed]
        for elapsed, path in candidates:
            try:
                restored = restore_prepared(path.read_bytes())
                if restored.base_tick != elapsed:
                    raise SnapshotError(
                        f"entry named {elapsed} restored at cycle {restored.base_tick}"
                    )
            except (OSError, SnapshotError) as exc:
                self._note(path, CacheError(str(exc)))
                # Evict the unusable entry so a later publish can heal it
                # (publish skips existing paths).  Benign race: another
                # worker may have just replaced it with a good blob, in
                # which case this merely evicts one healthy entry.
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            self.counters.hits += 1
            if tracer is not None:
                tracer.event(
                    "cache.restore",
                    "cache",
                    start_ns,
                    tracer.now_ns() - start_ns,
                    {"key": key[:12], "elapsed": elapsed},
                )
            return restored
        self.counters.misses += 1
        if tracer is not None:
            tracer.event(
                "cache.restore",
                "cache",
                start_ns,
                tracer.now_ns() - start_ns,
                {"key": key[:12], "elapsed": None, "miss": True},
            )
        return None

    # ----------------------------------------------------------------- write

    def publish(self, key: str, prepared: object, elapsed: int) -> bool:
        """Publish a snapshot of ``prepared`` at simulated cycle ``elapsed``.

        No-op if the entry already exists (concurrent workers race to the
        same content; first writer wins and ``os.replace`` keeps even the
        race atomic).  Failures are counted and noted, never raised —
        publishing is strictly best-effort.  Returns True when a new entry
        landed on disk.
        """
        if elapsed <= 0:
            return False
        path = self._entry_dir(key) / f"{elapsed}.snap"
        if path.exists():
            return False
        tracer = tracing.TRACER
        start_ns = tracer.now_ns() if tracer is not None else 0
        try:
            blob = snapshot_prepared(prepared)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except (OSError, SnapshotError) as exc:
            self._note(path, CacheError(str(exc)))
            return False
        self.counters.writes += 1
        if tracer is not None:
            tracer.event(
                "cache.publish",
                "cache",
                start_ns,
                tracer.now_ns() - start_ns,
                {"key": key[:12], "elapsed": elapsed, "bytes": len(blob)},
            )
        return True

    # ------------------------------------------------------------- reporting

    def stats(self) -> Dict[str, object]:
        """JSON-ready counters + notes (the ``execution.cache`` payload)."""
        payload: Dict[str, object] = {"path": str(self.root)}
        payload.update(self.counters.as_dict())
        payload["notes"] = sorted(self.notes)
        return payload


__all__ = ["CacheCounters", "CacheError", "PlanCache", "group_cache_key"]
