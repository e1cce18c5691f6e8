"""Fleet ledger: fleet.json payload, loading, and the status rendering."""

from pathlib import Path

import pytest

from repro.fleet.ledger import (
    FLEET_JSON,
    LEDGER_SCHEMA_VERSION,
    STATUS_PARTIAL,
    FleetLedger,
    load_ledger,
    render_ledger,
)
from repro.fleet.supervisor import Attempt, CRASH
from repro.fleet.transport import WorkerSpec
from repro.run import main
from repro.sweep.campaign import ShardSpec


class _Handle:
    def __init__(self):
        self.spec = WorkerSpec(name="w", argv=["x"], log_path=Path("/tmp/w.log"))

    @property
    def ident(self):
        return "pid:42"


def make_ledger() -> FleetLedger:
    return FleetLedger(
        campaign="demo",
        spec_hash="abc123",
        points_total=10,
        workers=2,
        timeout=60.0,
        max_retries=3,
        backoff_base=0.5,
        backoff_cap=30.0,
    )


def make_attempt(**overrides) -> Attempt:
    attempt = Attempt(
        shard=ShardSpec(index=0, count=2, runs=((0, 2), (4, 5))),
        number=1,
        artifact_dir=Path("/tmp/demo/shard-0"),
        handle=_Handle(),
    )
    attempt.returncode = -9
    attempt.exit_class = CRASH
    attempt.outcome = CRASH
    attempt.accepted = False
    attempt.wall_seconds = 1.25
    attempt.chaos = "kill"
    attempt.detail = "no artifacts produced"
    for key, value in overrides.items():
        setattr(attempt, key, value)
    return attempt


class TestLedgerPayload:
    def test_rounds_and_attempts_are_recorded(self):
        ledger = make_ledger()
        record = ledger.start_round(0, 0.0, list(range(10)))
        ledger.record_attempt(record, make_attempt(), points_delivered=0)
        ledger.finish(
            status=STATUS_PARTIAL,
            exit_code=4,
            wall_seconds=2.0,
            missing=[5, 6],
            artifacts={"heal_json": Path("/tmp/demo/heal.json")},
        )
        payload = ledger.payload()
        assert payload["schema_version"] == LEDGER_SCHEMA_VERSION
        assert payload["status"] == STATUS_PARTIAL and payload["exit_code"] == 4
        assert payload["missing"] == 2 and payload["missing_sample"] == [5, 6]
        (round_record,) = payload["rounds"]
        (entry,) = round_record["attempts"]
        assert entry["shard"] == "0/2@0:2,4:5" and entry["runs"] == [[0, 2], [4, 5]]
        assert entry["outcome"] == CRASH and entry["chaos"] == "kill"
        assert entry["accepted"] is False and entry["returncode"] == -9
        assert entry["worker"] == "pid:42"

    def test_metrics_count_attempts_and_points(self):
        ledger = make_ledger()
        record = ledger.start_round(0, 0.0, list(range(10)))
        ledger.record_attempt(record, make_attempt(), points_delivered=0)
        ledger.record_attempt(
            record,
            make_attempt(outcome="completed", accepted=True, chaos=None, detail=""),
            points_delivered=5,
        )
        metrics = ledger.metrics.as_dict()
        counters = metrics["counter"]
        assert counters["fleet.rounds"] == 1
        assert counters["fleet.attempts{outcome=crash}"] == 1
        assert counters["fleet.attempts{outcome=completed}"] == 1
        assert counters["fleet.points{kind=delivered}"] == 5

    def test_write_and_load_round_trip(self, tmp_path):
        ledger = make_ledger()
        ledger.finish(status="complete", exit_code=0, wall_seconds=1.0, missing=[], artifacts={})
        path = ledger.write(tmp_path)
        assert path == tmp_path / FLEET_JSON
        payload = load_ledger(tmp_path)  # directory form
        assert payload == load_ledger(path)  # file form
        assert payload["campaign"] == "demo"


class TestLoadLedgerErrors:
    def test_missing_ledger_names_the_path(self, tmp_path):
        with pytest.raises(ValueError, match="no fleet ledger"):
            load_ledger(tmp_path)

    def test_invalid_json_names_the_path(self, tmp_path):
        (tmp_path / FLEET_JSON).write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_ledger(tmp_path)

    def test_non_object_payload_is_rejected(self, tmp_path):
        (tmp_path / FLEET_JSON).write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_ledger(tmp_path)


class TestRender:
    def test_render_mentions_every_attempt_and_note(self):
        ledger = make_ledger()
        record = ledger.start_round(1, 0.5, [3, 4])
        ledger.record_attempt(record, make_attempt(), points_delivered=0)
        ledger.note("scavenge skipped a damaged directory")
        ledger.finish(
            status=STATUS_PARTIAL, exit_code=4, wall_seconds=2.0, missing=[3], artifacts={}
        )
        text = render_ledger(ledger.payload())
        assert "fleet demo: partial (exit 4)" in text
        assert "round 1 (backoff 0.50s)" in text
        assert "shard 0/2@0:2,4:5 attempt 1: crash" in text
        assert "chaos=kill" in text
        assert "no artifacts produced" in text
        assert "note: scavenge skipped" in text

    def test_render_reads_old_ledgers_with_a_transport(self):
        # Ledgers written before the transport seam was deleted carry
        # ``config.transport`` and a per-attempt ``span``; status still
        # renders them.
        ledger = make_ledger()
        ledger.record_attempt(ledger.start_round(0, 0.0, [0]), make_attempt(), points_delivered=0)
        payload = ledger.payload()
        payload["config"]["transport"] = "local"
        payload["rounds"][0]["attempts"][0]["span"] = [0, 5]
        text = render_ledger(payload)
        assert "config: workers=2 timeout=60.0s" in text
        assert "shard 0/2@0:2,4:5 attempt 1: crash" in text

    def test_status_reads_old_ledgers_with_plan_sharing_counters(self, tmp_path, capsys):
        # Ledgers written while simulators shared one schedule plan per
        # process carry a ``kernel.plan_shared`` counter, and those written
        # while the fleet had a plan cache carry ``cache.*`` counters;
        # ``fleet status`` still renders them, with no cache line.
        ledger = make_ledger()
        ledger.metrics.counter("cache.hit").inc(4)
        ledger.metrics.counter("kernel.plan_shared").inc(7)
        ledger.finish(status="complete", exit_code=0, wall_seconds=1.0, missing=[], artifacts={})
        ledger.write(tmp_path)
        assert main(["fleet", "status", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "fleet demo: complete" in text
        assert "plan cache" not in text
        assert "plan_shared" not in text
