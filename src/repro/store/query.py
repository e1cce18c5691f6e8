"""Read API over the results store: filter, project, aggregate, export.

The query model mirrors the ``results.csv`` column namespace so nothing new
has to be learned: ``index``, ``scenario``, ``horizon_cycles``, ``seed``,
``wall_seconds``, ``campaign``, plus the namespaced payload columns
``param.<axis>``, ``stat.<key>``, ``power_uw.<component>``,
``area_kge.<component>``.  Rows are prefiltered in SQL by campaign and
scenario, then the JSON payload columns are flattened in Python — the
store deliberately depends on nothing beyond stdlib ``sqlite3`` (no JSON1
extension assumptions).

Three layers:

* :func:`select_rows` — flat row dicts for a filter/projection;
* :func:`aggregate_rows` — ``count`` / ``min:col`` / ``mean:col`` /
  ``max:col`` / ``sum:col`` over the selected rows, optionally grouped;
* :func:`format_rows` / :func:`write_rows` — render as an aligned text
  table, JSON, or CSV (stdout or ``--out`` file).

:func:`campaign_points` and :func:`reconstruct_results_payload` are the
store's fidelity seam: they decode the stored canonical JSON through the
artifact codec (:func:`repro.sweep.artifacts.point_from_record`) and
rebuild the exact ``results.json`` payload — byte-identical once dumped
with the artifact serialiser (proven by ``tests/store/test_ingest.py``).
``--resume-from-store`` rests on the same decoding.  Queries emit a
``store.query`` span when a tracer is installed.
"""

from __future__ import annotations

import csv
import io
import json
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.store.schema import StoreError, schema_version
from repro.sweep.artifacts import (
    RECORD_IDENTITY_KEYS,
    RECORD_PAYLOAD_KEYS,
    point_from_record,
    point_record,
)
from repro.sweep.execute import PointResult

#: Scalar columns stored directly on the points table.
SCALAR_COLUMNS = ("index", "scenario", "horizon_cycles", "seed", "wall_seconds")

#: JSON payload namespaces, in results.csv order.
NAMESPACES = ("param", "stat", "power_uw", "area_kge")

_NAMESPACE_TO_SQL = {
    "param": "params",
    "stat": "stats",
    "power_uw": "power_uw",
    "area_kge": "area_kge",
}

#: Comparison operators accepted in ``--where`` filters, longest first so
#: ``<=`` never parses as ``<``.
OPERATORS = ("==", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class Filter:
    """One parsed ``column OP value`` condition."""

    column: str
    op: str
    value: object

    def matches(self, row_value: object) -> bool:
        if self.op == "==":
            return row_value == self.value
        if self.op == "!=":
            return row_value != self.value
        if row_value is None:
            return False
        try:
            if self.op == "<=":
                return row_value <= self.value  # type: ignore[operator]
            if self.op == ">=":
                return row_value >= self.value  # type: ignore[operator]
            if self.op == "<":
                return row_value < self.value  # type: ignore[operator]
            return row_value > self.value  # type: ignore[operator]
        except TypeError:
            raise StoreError(
                f"filter {self.column} {self.op} {self.value!r}: cannot compare "
                f"against stored value {row_value!r}"
            ) from None


def parse_filter(text: str) -> Filter:
    """Parse ``column OP value`` (e.g. ``param.divisor<=8``, ``stat.recovered==true``).

    Values parse as JSON when possible (numbers, ``true``/``false``), and
    fall back to the bare string otherwise (scenario names need no quotes).
    """
    for op in OPERATORS:
        column, found, raw = text.partition(op)
        if found:
            column = column.strip()
            raw = raw.strip()
            if not column or not raw:
                break
            try:
                value = json.loads(raw)
            except ValueError:
                value = raw
            return Filter(column=column, op=op, value=value)
    raise StoreError(
        f"filter {text!r} is not of the form 'column OP value' with OP one of "
        f"{', '.join(OPERATORS)}"
    )


def _row_from_db(db_row: sqlite3.Row) -> Dict[str, object]:
    """Flatten one points row (+ campaign name) into the query namespace."""
    row: Dict[str, object] = {
        "campaign": db_row["name"],
        "index": db_row["point_index"],
        "scenario": db_row["scenario"],
        "horizon_cycles": db_row["horizon_cycles"],
        "seed": db_row["seed"],
        "wall_seconds": db_row["wall_seconds"],
    }
    for namespace, sql_column in _NAMESPACE_TO_SQL.items():
        for key, value in json.loads(db_row[sql_column]).items():
            row[f"{namespace}.{key}"] = value
    return row


def select_rows(
    conn: sqlite3.Connection,
    campaign: Optional[str] = None,
    scenario: Optional[str] = None,
    where: Sequence[Filter] = (),
    columns: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Flat row dicts matching the filters, ordered by (campaign, index).

    ``campaign``/``scenario`` prefilter in SQL; ``where`` filters apply to
    the flattened namespace; ``columns`` projects (unknown columns come
    back as ``None`` so sparse campaigns stay queryable side by side).
    """
    with tracing.span(
        "store.query", "store", campaign=campaign or "*", scenario=scenario or "*", filters=len(where)
    ) as args:
        sql = (
            "SELECT campaigns.name AS name, points.* FROM points"
            " JOIN campaigns ON campaigns.id = points.campaign_id"
        )
        clauses: List[str] = []
        params: List[object] = []
        if campaign is not None:
            # Resolve name-or-spec_hash up front so an unknown campaign is a
            # named error rather than a silent empty result set.
            clauses.append("campaigns.id = ?")
            params.append(campaign_row(conn, campaign)["id"])
        if scenario is not None:
            clauses.append("points.scenario = ?")
            params.append(scenario)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY campaigns.name, points.point_index"
        rows = []
        for db_row in conn.execute(sql, params):
            row = _row_from_db(db_row)
            if all(condition.matches(row.get(condition.column)) for condition in where):
                if columns:
                    row = {column: row.get(column) for column in columns}
                rows.append(row)
        args["rows"] = len(rows)
    return rows


def parse_aggregate(text: str) -> Tuple[str, Optional[str]]:
    """Parse one aggregate spec: ``count`` or ``min|mean|max|sum:column``."""
    func, found, column = text.partition(":")
    if func == "count" and not found:
        return "count", None
    if func in ("min", "mean", "max", "sum") and column:
        return func, column
    raise StoreError(
        f"aggregate {text!r} is not 'count' or one of min/mean/max/sum:<column>"
    )


def aggregate_rows(
    rows: Sequence[Dict[str, object]],
    aggregates: Sequence[Tuple[str, Optional[str]]],
    group_by: Sequence[str] = (),
) -> List[Dict[str, object]]:
    """Reduce selected rows to one output row per group.

    Non-numeric and missing values are excluded from min/mean/max/sum (a
    column absent from one campaign does not poison a cross-campaign
    aggregate); ``count`` counts rows.
    """
    groups: Dict[Tuple[object, ...], List[Dict[str, object]]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        groups.setdefault(key, []).append(row)
    output: List[Dict[str, object]] = []
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        members = groups[key]
        out: Dict[str, object] = dict(zip(group_by, key))
        for func, column in aggregates:
            if func == "count":
                out["count"] = len(members)
                continue
            values = [
                value
                for member in members
                if isinstance(value := member.get(column), (int, float))
                and not isinstance(value, bool)
            ]
            label = f"{func}:{column}"
            if not values:
                out[label] = None
            elif func == "min":
                out[label] = min(values)
            elif func == "max":
                out[label] = max(values)
            elif func == "sum":
                out[label] = sum(values)
            else:
                out[label] = sum(values) / len(values)
        output.append(out)
    return output


def _ordered_columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    return columns


def format_rows(rows: Sequence[Dict[str, object]], fmt: str = "table") -> str:
    """Render rows as ``table`` (aligned text), ``json``, or ``csv``."""
    if fmt == "json":
        return json.dumps(list(rows), indent=2, sort_keys=True) + "\n"
    columns = _ordered_columns(rows)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
        return buffer.getvalue()
    if fmt != "table":
        raise StoreError(f"unknown output format {fmt!r} (expected table, json, or csv)")
    if not rows:
        return "(no rows)\n"
    cells = [[("" if row.get(c) is None else str(row.get(c))) for c in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in cells)) for i, column in enumerate(columns)
    ]
    lines = ["  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)).rstrip()]
    for line in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(lines) + "\n"


def write_rows(rows: Sequence[Dict[str, object]], fmt: str, out: Optional[str]) -> str:
    """Format rows; write to ``out`` when given.  Returns the rendering
    (the CLI prints it when no ``--out`` was requested)."""
    rendering = format_rows(rows, fmt)
    if out:
        from pathlib import Path

        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendering, encoding="utf-8")
    return rendering


# ---------------------------------------------------------------------------
# Reconstruction: the store → results.json fidelity seam.


def campaign_row(conn: sqlite3.Connection, campaign: str) -> sqlite3.Row:
    """The campaigns row for ``campaign`` (a name or a spec_hash)."""
    row = conn.execute(
        "SELECT * FROM campaigns WHERE name = ? OR spec_hash = ?", (campaign, campaign)
    ).fetchone()
    if row is None:
        raise StoreError(f"campaign {campaign!r} is not in the store")
    return row


def campaign_points(conn: sqlite3.Connection, campaign_id: int) -> List[PointResult]:
    """Every stored point of one campaign, in index order, with its wall time.

    The payload columns hold the canonical JSON of the original record's
    sub-objects, so the parsed row is the original record, and the artifact
    codec decodes it like any ``results.json`` record.
    """
    points: List[PointResult] = []
    for row in conn.execute(
        'SELECT point_index AS "index", * FROM points WHERE campaign_id = ?'
        " ORDER BY point_index",
        (campaign_id,),
    ):
        record = {key: row[key] for key in RECORD_IDENTITY_KEYS}
        record.update((key, json.loads(row[key])) for key in RECORD_PAYLOAD_KEYS)
        point = point_from_record(record, f"store campaign #{campaign_id}")
        point.wall_seconds = row["wall_seconds"]
        points.append(point)
    return points


def reconstruct_results_payload(conn: sqlite3.Connection, campaign: str) -> Dict[str, object]:
    """Rebuild the (unsharded) ``results.json`` payload of one campaign.

    Byte-identical to the artifact a full or merged run wrote once dumped
    with ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` —
    provided the store actually holds every point (a partial corpus
    raises, naming the gap, rather than emitting an artifact that
    understates the campaign).
    """
    row = campaign_row(conn, campaign)
    points = campaign_points(conn, int(row["id"]))
    missing = sorted(set(range(int(row["points_total"]))) - {point.index for point in points})
    if missing:
        shown = ", ".join(str(index) for index in missing[:12])
        extra = len(missing) - 12
        raise StoreError(
            f"campaign {row['name']!r}: store holds {len(points)} of "
            f"{row['points_total']} points (missing {shown}"
            + (f", … ({extra} more)" if extra > 0 else "")
            + ") — ingest the missing shards first"
        )
    return {
        "schema_version": int(row["artifact_schema_version"]),
        "campaign": row["name"],
        "scenario": row["scenario"],
        "n_points": len(points),
        "points": [point_record(point) for point in points],
    }


def store_info(conn: sqlite3.Connection) -> Dict[str, object]:
    """Summary payload for ``store info``: schema version, per-campaign
    coverage (stored vs. total points, seeds, ingest history size), and
    corpus totals."""
    campaigns = []
    for row in conn.execute("SELECT * FROM campaigns ORDER BY name"):
        stored = conn.execute(
            "SELECT count(*) AS n, sum(wall_seconds) AS wall FROM points WHERE campaign_id = ?",
            (row["id"],),
        ).fetchone()
        ingests = conn.execute(
            "SELECT count(*) AS n FROM ingests WHERE campaign_id = ?", (row["id"],)
        ).fetchone()
        campaigns.append(
            {
                "name": row["name"],
                "scenario": row["scenario"],
                "spec_hash": row["spec_hash"],
                "points_stored": int(stored["n"]),
                "points_total": int(row["points_total"]),
                "complete": int(stored["n"]) == int(row["points_total"]),
                "wall_seconds": float(stored["wall"] or 0.0),
                "ingests": int(ingests["n"]),
            }
        )
    totals = conn.execute("SELECT count(*) AS n FROM points").fetchone()
    return {
        "schema_version": schema_version(conn),
        "campaigns": campaigns,
        "total_points": int(totals["n"]),
    }
