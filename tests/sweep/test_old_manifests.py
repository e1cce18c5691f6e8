"""Artifacts written in older formats stay readable.

Older runs recorded which batch round loop produced them
(``execution.backend``, e.g. ``"numpy"``) and the pool's points per task
(``execution.chunk``), and their shard blocks declared one contiguous
``start``/``stop`` range instead of an index set (``runs``): both an
explicit ``I/N@START:STOP`` fleet shard in ``shard-I-of-N-span-START-STOP``
and a balanced ``shard-I-of-N`` slice.  New manifests write neither field
nor form, but artifact directories written with them must still resume,
merge and ingest: every reader takes ``execution`` fields with ``.get``,
ignores keys it does not know, and reads a ``start``/``stop`` block as the
one-run index set.  Manifests and fleet ledgers written while the sweep
had a plan cache carry ``execution.cache`` blocks and ``cache.*`` counters,
which every reader now ignores.
"""

import json
import shutil

import pytest

from repro.fleet import FleetConfig, run_fleet
from repro.run import main


def _age(campaign_dir):
    """Rewrite a manifest the way an older run wrote it."""
    path = campaign_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["execution"]["backend"] = "numpy"
    manifest["execution"]["chunk"] = manifest["n_points"]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    if len(manifest.get("shard", {}).get("runs", ())) == 1:
        # Older shard blocks declared one [start, stop) range.
        for name in ("manifest.json", "results.json"):
            path = campaign_dir / name
            payload = json.loads(path.read_text(encoding="utf-8"))
            ((start, stop),) = payload["shard"].pop("runs")
            payload["shard"].update(start=start, stop=stop)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _execution(campaign_dir):
    return json.loads((campaign_dir / "manifest.json").read_text(encoding="utf-8"))["execution"]


def test_resume_reuses_an_old_manifest(tmp_path):
    assert main(["sweep", "smoke", "--out", str(tmp_path)]) == 0
    campaign_dir = tmp_path / "smoke"
    before = (campaign_dir / "results.json").read_bytes()
    _age(campaign_dir)
    assert main(["sweep", "smoke", "--resume", "--out", str(tmp_path)]) == 0
    execution = _execution(campaign_dir)
    assert execution["reused_points"] == 4
    assert execution["computed_points"] == 0
    assert "backend" not in execution and "chunk" not in execution
    assert (campaign_dir / "results.json").read_bytes() == before


def test_merge_accepts_old_shard_manifests(tmp_path):
    assert main(["sweep", "smoke", "--out", str(tmp_path / "serial")]) == 0
    shards = tmp_path / "shards"
    for index in range(2):
        assert main(["sweep", "smoke", "--shard", f"{index}/2", "--out", str(shards)]) == 0
        _age(shards / "smoke" / f"shard-{index}-of-2")
    shard_dirs = [str(shards / "smoke" / f"shard-{index}-of-2") for index in range(2)]
    assert main(["sweep", "merge", *shard_dirs, "--out", str(tmp_path / "merged")]) == 0
    merged = tmp_path / "merged" / "smoke"
    assert "backend" not in _execution(merged) and "chunk" not in _execution(merged)
    for name in ("results.json", "results.csv"):
        assert (merged / name).read_bytes() == (tmp_path / "serial" / "smoke" / name).read_bytes()


def test_store_ingests_an_old_manifest(tmp_path, capsys):
    assert main(["sweep", "smoke", "--out", str(tmp_path)]) == 0
    _age(tmp_path / "smoke")
    db = str(tmp_path / "store.sqlite")
    assert main(["store", "ingest", str(tmp_path / "smoke"), "--db", db]) == 0
    assert "4 inserted" in capsys.readouterr().out


def _old_fleet(tmp_path):
    """smoke as an older fleet left it: an explicit one-range shard in its
    ``-span-`` directory and a balanced ``shard-I-of-N`` slice, both with
    ``start``/``stop`` shard blocks and ``execution.chunk``."""
    out = tmp_path / "old"
    assert main(["sweep", "smoke", "--shard", "0/2@0:2", "--out", str(out)]) == 0
    assert main(["sweep", "smoke", "--shard", "1/2@2:4", "--out", str(out)]) == 0
    explicit = out / "smoke" / "shard-0-of-2-span-0-2"
    balanced = out / "smoke" / "shard-1-of-2"
    shutil.move(str(out / "smoke" / "shard-1-of-2-span-2-4"), str(balanced))
    for directory in (explicit, balanced):
        _age(directory)
        assert "start" in json.loads((directory / "manifest.json").read_text())["shard"]
    return out, [explicit, balanced]


def test_old_shard_directories_resume_merge_and_ingest(tmp_path, capsys):
    assert main(["sweep", "smoke", "--out", str(tmp_path / "serial")]) == 0
    out, old_dirs = _old_fleet(tmp_path)

    # Merge: byte-identical to the serial run.
    assert main(["sweep", "merge", *map(str, old_dirs), "--out", str(tmp_path / "merged")]) == 0
    for name in ("results.json", "results.csv"):
        merged = (tmp_path / "merged" / "smoke" / name).read_bytes()
        assert merged == (tmp_path / "serial" / "smoke" / name).read_bytes()

    # Resume: the explicit shard re-run reuses its own old slice entirely.
    assert main(["sweep", "smoke", "--shard", "0/2@0:2", "--resume", "--out", str(out)]) == 0
    execution = _execution(old_dirs[0])
    assert execution["reused_points"] == 2 and execution["computed_points"] == 0

    # Ingest: everything is already in the store, so nothing is inserted.
    db = str(tmp_path / "store.sqlite")
    assert main(["store", "ingest", str(tmp_path / "serial" / "smoke"), "--db", db]) == 0
    capsys.readouterr()
    _, old_dirs = _old_fleet(tmp_path / "again")
    assert main(["store", "ingest", *map(str, old_dirs), "--db", db]) == 0
    assert "0 inserted, 4 deduplicated" in capsys.readouterr().out


@pytest.fixture
def plan_cache_era_fleet(tmp_path):
    """A finished smoke fleet as it was written while the fleet had a plan
    cache: every manifest carries an ``execution.cache`` block, and the
    ledger carries ``cache.*`` counters and ``config.plan_cache``."""
    out = tmp_path / "fleet"
    result = run_fleet(FleetConfig(campaign="smoke", workers=2, out=out, echo=lambda message: None))
    assert result.exit_code == 0
    cache_dir = str(result.campaign_dir / "plan-cache")
    for path in result.campaign_dir.rglob("manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["execution"]["cache"] = {
            "path": cache_dir, "hits": 2, "misses": 0, "writes": 0, "errors": 1, "notes": ["entry: stale"]
        }
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    ledger = json.loads(result.ledger_path.read_text(encoding="utf-8"))
    ledger["config"]["plan_cache"] = cache_dir
    ledger["metrics"]["counter"].update({"cache.hit": 4, "cache.miss": 0, "cache.write": 4, "cache.error": 0})
    result.ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True), encoding="utf-8")
    return result.campaign_dir


def test_plan_cache_era_artifacts_resume_merge_ingest_and_render(tmp_path, capsys, plan_cache_era_fleet):
    campaign_dir = plan_cache_era_fleet
    shard_dirs = sorted(str(path) for path in campaign_dir.glob("shard-*"))
    before = {name: (campaign_dir / name).read_bytes() for name in ("results.json", "results.csv")}

    assert main(["sweep", "merge", *shard_dirs, "--out", str(tmp_path / "merged")]) == 0
    for name, content in before.items():
        assert (tmp_path / "merged" / "smoke" / name).read_bytes() == content
    assert main(["store", "ingest", str(campaign_dir), *shard_dirs, "--db", str(tmp_path / "store.sqlite")]) == 0
    assert "4 inserted" in capsys.readouterr().out
    for directory in (campaign_dir, shard_dirs[0]):
        assert main(["stats", str(directory)]) == 0
    assert main(["fleet", "status", str(campaign_dir)]) == 0
    rendered = capsys.readouterr().out
    assert "fleet smoke: complete" in rendered and "campaign smoke" in rendered
    assert "plan cache" not in rendered

    assert main(["sweep", "smoke", "--resume", "--out", str(campaign_dir.parent)]) == 0
    execution = _execution(campaign_dir)
    assert execution["reused_points"] == 4 and execution["computed_points"] == 0
    assert "cache" not in execution
    for name, content in before.items():
        assert (campaign_dir / name).read_bytes() == content
