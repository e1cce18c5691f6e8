"""Superseded shard directories: a complete merge prunes them.

A fleet rerun whose cut differs from the last run's writes new ``shard-*``
directories next to the old ones.  Once a *complete* merge has folded the
new ones into the campaign's results (which every later run resumes
from), the old ones hold nothing the campaign needs: the fleet deletes
each ``shard-*`` directory of this campaign that the merge did not read.
A directory of another campaign definition and a damaged one are left
alone with a ledger note, and a partial merge keeps everything, because
its heal plan names the surviving shard directories.
"""

import json
import shutil
from pathlib import Path

from repro.fleet import EXIT_COMPLETE, EXIT_PARTIAL, FleetConfig, run_fleet
from repro.run import main
from repro.sweep import CampaignSpec, campaign, execute_campaign, write_artifacts

SMOKE = campaign("smoke")


def make_config(out: Path, **overrides) -> FleetConfig:
    options = dict(
        campaign="smoke", workers=2, out=out, timeout=60.0, backoff_base=0.05, poll_interval=0.02, echo=print
    )
    options.update(overrides)
    return FleetConfig(**options)


def seed_shard_dirs(out: Path) -> dict:
    """Three ``shard-*`` directories no fleet cut of ``smoke`` writes: a
    stale slice of this campaign, a slice of another campaign definition
    under the same name, and a damaged copy of the stale slice."""
    assert main(["sweep", "smoke", "--shard", "0/3", "--out", str(out)]) == 0
    campaign_dir = out / "smoke"
    stale = campaign_dir / "shard-0-of-3"
    other = CampaignSpec(
        name=SMOKE.name,
        description="same name, another grid",
        scenario=SMOKE.scenario,
        grid={axis: values[:1] for axis, values in SMOKE.grid.items()},
    )
    write_artifacts(other, execute_campaign(other, jobs=1), out, subdir="shard-0-of-9")
    damaged = campaign_dir / "shard-1-of-9"
    shutil.copytree(stale, damaged)
    results = damaged / "results.json"
    results.write_text(results.read_text()[:100])
    return {"stale": stale, "other": campaign_dir / "shard-0-of-9", "damaged": damaged}


def test_complete_merge_prunes_only_this_campaigns_superseded_shards(tmp_path):
    out = tmp_path / "fleet"
    seeded = seed_shard_dirs(out)
    result = run_fleet(make_config(out))
    assert result.exit_code == EXIT_COMPLETE

    assert not seeded["stale"].exists()
    assert seeded["other"].is_dir() and seeded["damaged"].is_dir()
    manifest = json.loads((result.campaign_dir / "manifest.json").read_text())
    sources = {source["directory"] for source in manifest["execution"]["merged_from"]}
    remaining = {str(path) for path in result.campaign_dir.glob("shard-*")}
    assert remaining == sources | {str(seeded["other"]), str(seeded["damaged"])}

    notes = json.loads(result.ledger_path.read_text())["notes"]
    assert any("pruned" in note and str(seeded["stale"]) in note for note in notes)
    assert any(str(seeded["other"]) in note and "no artifacts of this campaign" in note for note in notes)
    assert any(str(seeded["damaged"]) in note and "damaged" in note for note in notes)


def test_partial_merge_keeps_every_shard_directory(tmp_path):
    out = tmp_path / "fleet"
    seeded = seed_shard_dirs(out)
    before = {path.name for path in (out / "smoke").glob("shard-*")}
    result = run_fleet(make_config(out, max_retries=0, chaos={0: "kill"}))
    assert result.exit_code == EXIT_PARTIAL
    assert seeded["stale"].is_dir()
    assert before <= {path.name for path in result.campaign_dir.glob("shard-*")}
