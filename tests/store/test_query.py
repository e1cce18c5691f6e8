"""Query API: filters, projection, aggregation, rendering, store info."""

import json

import pytest

from repro.store import (
    StoreError,
    aggregate_rows,
    connect,
    format_rows,
    ingest_directories,
    parse_aggregate,
    parse_filter,
    select_rows,
    store_info,
)
from repro.sweep.artifacts import write_artifacts
from repro.sweep.campaign import CampaignSpec
from repro.sweep.execute import execute_campaign
from repro.sweep.resume import spec_hash

SPEC = CampaignSpec(
    name="store-query-test",
    description="small store-query-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


@pytest.fixture()
def store(tmp_path):
    result = execute_campaign(SPEC, jobs=1)
    write_artifacts(SPEC, result, tmp_path)
    conn = connect(tmp_path / "store.sqlite")
    ingest_directories(conn, [tmp_path / SPEC.name])
    yield conn
    conn.close()


class TestParseFilter:
    def test_operators_parse_longest_first(self):
        assert parse_filter("param.x<=8").op == "<="
        assert parse_filter("param.x<8").op == "<"
        assert parse_filter("stat.ok==true").value is True
        assert parse_filter("scenario==duty-cycled-logging").value == "duty-cycled-logging"

    def test_malformed_filter_is_a_named_error(self):
        with pytest.raises(StoreError, match="filter"):
            parse_filter("no-operator-here")

    def test_malformed_aggregate_is_a_named_error(self):
        assert parse_aggregate("count") == ("count", None)
        assert parse_aggregate("mean:power_uw.Total") == ("mean", "power_uw.Total")
        with pytest.raises(StoreError, match="aggregate"):
            parse_aggregate("median:power_uw.Total")


class TestSelectRows:
    def test_all_rows_carry_namespaced_columns(self, store):
        rows = select_rows(store)
        assert len(rows) == 4
        for row in rows:
            assert row["campaign"] == SPEC.name
            assert row["scenario"] == SPEC.scenario
            assert "param.sample_period_cycles" in row
            assert "power_uw.Total" in row
            assert "stat.samples_taken" in row

    def test_campaign_filter_accepts_name_and_spec_hash(self, store):
        assert len(select_rows(store, campaign=SPEC.name)) == 4
        assert len(select_rows(store, campaign=spec_hash(SPEC))) == 4

    def test_unknown_campaign_is_a_named_error(self, store):
        with pytest.raises(StoreError, match="no-such"):
            select_rows(store, campaign="no-such-campaign")

    def test_where_filters_and_columns_project(self, store):
        rows = select_rows(
            store,
            where=(parse_filter("horizon_cycles>=60000"),),
            columns=["index", "horizon_cycles", "power_uw.Total"],
        )
        assert rows
        for row in rows:
            assert sorted(row) == ["horizon_cycles", "index", "power_uw.Total"]
            assert row["horizon_cycles"] >= 60_000

    def test_no_matching_rows_is_empty_not_error(self, store):
        assert select_rows(store, where=(parse_filter("horizon_cycles>999999999"),)) == []


class TestAggregates:
    def test_count_min_mean_max(self, store):
        rows = select_rows(store)
        out = aggregate_rows(
            rows, [("count", None), ("min", "horizon_cycles"), ("max", "horizon_cycles")]
        )
        assert out == [
            {"count": 4, "min:horizon_cycles": 40_000, "max:horizon_cycles": 60_000}
        ]

    def test_group_by_parameter(self, store):
        rows = select_rows(store)
        out = aggregate_rows(
            rows, [("count", None), ("mean", "power_uw.Total")], group_by=("param.sample_period_cycles",)
        )
        assert [group["param.sample_period_cycles"] for group in out] == [2_000, 4_000]
        for group in out:
            assert group["count"] == 2
            assert group["mean:power_uw.Total"] > 0

    def test_cross_campaign_group_by(self, tmp_path, store):
        from dataclasses import replace

        other = replace(SPEC, name="store-query-test-b", base_seed=9)
        result = execute_campaign(other, jobs=1)
        write_artifacts(other, result, tmp_path / "b")
        ingest_directories(store, [tmp_path / "b" / other.name])

        out = aggregate_rows(select_rows(store), [("count", None)], group_by=("campaign",))
        assert out == [
            {"campaign": SPEC.name, "count": 4},
            {"campaign": other.name, "count": 4},
        ]


class TestRendering:
    def test_csv_and_json_round_trip(self, store):
        rows = select_rows(store, columns=["index", "seed", "power_uw.Total"])
        as_json = json.loads(format_rows(rows, "json"))
        assert as_json == rows
        csv_text = format_rows(rows, "csv")
        lines = csv_text.strip().split("\n")
        assert lines[0] == "index,seed,power_uw.Total"
        assert len(lines) == 5

    def test_empty_table_renders_placeholder(self):
        assert "(no rows)" in format_rows([], "table")


class TestStoreInfo:
    def test_summary_counts_coverage_and_ingests(self, store, tmp_path):
        ingest_directories(store, [tmp_path / SPEC.name])  # dedup pass -> 2nd ingest row
        info = store_info(store)
        assert info["total_points"] == 4
        (campaign,) = info["campaigns"]
        assert campaign["name"] == SPEC.name
        assert campaign["points_stored"] == 4
        assert campaign["points_total"] == 4
        assert campaign["complete"] is True
        assert campaign["ingests"] == 2
