"""The fleet ledger: ``fleet.json``, the audit trail of one orchestration.

Everything the fleet did — every attempt of every shard with its exit
classification, validation verdict, wall time and log path; every heal
round with its backoff and the gap it was dispatched to close; the final
status and exit code — lands in one JSON document next to the campaign's
artifacts.  The ledger is pure bookkeeping: it never influences results
(the merged artifacts stay byte-identical to a serial run) and it is what
``python -m repro.run fleet status <dir>`` renders back for humans.

Fleet-level telemetry reuses the PR 7 metrics registry
(:class:`~repro.obs.metrics.MetricsRegistry`): attempt counters labelled by
outcome, healed/computed point counters, and a shard wall-time histogram,
serialised under the ledger's ``metrics`` key in the same schema the sweep
manifest uses — so ``stats``-style tooling can consume either.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

from repro.fleet.supervisor import Attempt

FLEET_JSON = "fleet.json"

#: Ledger schema version (independent of the artifact schema).
LEDGER_SCHEMA_VERSION = 1

STATUS_COMPLETE = "complete"
STATUS_PARTIAL = "partial"


def _summarise_indices(indices: List[int], limit: int = 16) -> List[int]:
    return sorted(indices)[:limit]


class FleetLedger:
    """Accumulates the orchestration record and writes ``fleet.json``."""

    def __init__(
        self,
        campaign: str,
        spec_hash: str,
        points_total: int,
        workers: int,
        timeout: Optional[float],
        max_retries: int,
        backoff_base: float,
        backoff_cap: float,
    ) -> None:
        self.campaign = campaign
        self.spec_hash = spec_hash
        self.points_total = points_total
        self.config = {
            "workers": workers,
            "timeout_seconds": timeout,
            "max_retries": max_retries,
            "backoff_base_seconds": backoff_base,
            "backoff_cap_seconds": backoff_cap,
        }
        self.rounds: List[Dict[str, object]] = []
        self.notes: List[str] = []
        self.metrics = MetricsRegistry()
        self.status: Optional[str] = None
        self.exit_code: Optional[int] = None
        self.wall_seconds: float = 0.0
        self.missing: List[int] = []
        self.artifacts: Dict[str, str] = {}

    # ------------------------------------------------------------- rounds

    def start_round(
        self, index: int, backoff_seconds: float, missing_before: List[int]
    ) -> Dict[str, object]:
        """Open round ``index`` (0 = the initial cut; ≥1 = heal rounds)."""
        record: Dict[str, object] = {
            "round": index,
            "backoff_seconds": backoff_seconds,
            "missing_before": len(missing_before),
            "missing_before_sample": _summarise_indices(missing_before),
            "attempts": [],
        }
        self.rounds.append(record)
        self.metrics.counter("fleet.rounds").inc()
        return record

    def record_attempt(
        self, round_record: Dict[str, object], attempt: Attempt, points_delivered: int
    ) -> None:
        """Append one finished attempt to its round."""
        runs = attempt.shard.runs
        entry: Dict[str, object] = {
            "shard": str(attempt.shard),
            "runs": [list(run) for run in runs] if runs is not None else None,
            "attempt": attempt.number,
            "outcome": attempt.outcome,
            "exit_class": attempt.exit_class,
            "returncode": attempt.returncode,
            "accepted": attempt.accepted,
            "points_delivered": points_delivered,
            "wall_seconds": round(attempt.wall_seconds, 6),
            "artifact_dir": str(attempt.artifact_dir),
            "log": str(attempt.handle.spec.log_path) if attempt.handle else None,
            "worker": attempt.handle.ident if attempt.handle else None,
        }
        if attempt.detail:
            entry["detail"] = attempt.detail
        if attempt.chaos:
            entry["chaos"] = attempt.chaos
        round_record["attempts"].append(entry)
        self.metrics.counter("fleet.attempts", {"outcome": attempt.outcome or "unknown"}).inc()
        self.metrics.counter("fleet.points", {"kind": "delivered"}).inc(points_delivered)
        self.metrics.histogram("fleet.shard_wall_seconds").observe(attempt.wall_seconds)

    # -------------------------------------------------------------- final

    def note(self, message: str) -> None:
        self.notes.append(message)

    def finish(
        self,
        status: str,
        exit_code: int,
        wall_seconds: float,
        missing: List[int],
        artifacts: Dict[str, Path],
    ) -> None:
        self.status = status
        self.exit_code = exit_code
        self.wall_seconds = wall_seconds
        self.missing = list(missing)
        self.artifacts = {key: str(path) for key, path in artifacts.items()}
        self.metrics.counter("fleet.points", {"kind": "missing"}).inc(len(missing))

    def payload(self) -> Dict[str, object]:
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "campaign": self.campaign,
            "spec_hash": self.spec_hash,
            "points_total": self.points_total,
            "config": dict(self.config),
            "status": self.status,
            "exit_code": self.exit_code,
            "wall_seconds": round(self.wall_seconds, 6),
            "missing": len(self.missing),
            "missing_sample": _summarise_indices(self.missing),
            "rounds": self.rounds,
            "notes": self.notes,
            "artifacts": dict(self.artifacts),
            "metrics": self.metrics.as_dict(),
        }

    def write(self, directory: Path) -> Path:
        """Write ``fleet.json`` into ``directory``; return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / FLEET_JSON
        path.write_text(
            json.dumps(self.payload(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path


# ------------------------------------------------------------------ render


def load_ledger(directory: Path) -> Dict[str, object]:
    """Read a ``fleet.json`` (the file itself, or the directory holding it).

    Raises ``ValueError`` with the path named when the ledger is missing or
    unparseable.
    """
    path = Path(directory)
    if path.is_dir():
        path = path / FLEET_JSON
    if not path.exists():
        raise ValueError(f"{path}: no fleet ledger found")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return payload


def render_ledger(payload: Dict[str, object]) -> str:
    """Human-readable rendering of a ledger payload (``fleet status``)."""
    lines: List[str] = []
    config = payload.get("config") or {}
    lines.append(
        f"fleet {payload.get('campaign')!s}: {payload.get('status')} "
        f"(exit {payload.get('exit_code')}) in {payload.get('wall_seconds', 0.0):.2f}s"
    )
    lines.append(
        f"  points {payload.get('points_total')} total, {payload.get('missing', 0)} missing"
        + (f" (sample: {payload.get('missing_sample')})" if payload.get("missing") else "")
    )
    lines.append(
        f"  config: workers={config.get('workers')} "
        f"timeout={config.get('timeout_seconds')}s max-retries={config.get('max_retries')} "
        f"backoff={config.get('backoff_base_seconds')}s..{config.get('backoff_cap_seconds')}s"
    )
    for round_record in payload.get("rounds", []):
        backoff = round_record.get("backoff_seconds", 0.0)
        heading = (
            f"  round {round_record.get('round')}"
            + (f" (backoff {backoff:.2f}s)" if backoff else "")
            + f": {round_record.get('missing_before')} point(s) to cover"
        )
        lines.append(heading)
        for attempt in round_record.get("attempts", []):
            mark = "+" if attempt.get("accepted") else "-"
            chaos = f" chaos={attempt['chaos']}" if attempt.get("chaos") else ""
            lines.append(
                f"    {mark} shard {attempt.get('shard')} attempt {attempt.get('attempt')}: "
                f"{attempt.get('outcome')} rc={attempt.get('returncode')} "
                f"{attempt.get('points_delivered')} point(s) "
                f"in {attempt.get('wall_seconds', 0.0):.2f}s{chaos}"
            )
            if attempt.get("detail"):
                lines.append(f"      {attempt['detail']}")
    for note in payload.get("notes", []):
        lines.append(f"  note: {note}")
    artifacts = payload.get("artifacts") or {}
    for key in sorted(artifacts):
        lines.append(f"  {key}: {artifacts[key]}")
    return "\n".join(lines)
