"""Manifests written before ``execution.backend`` was dropped stay readable.

Older runs recorded which batch round loop produced them
(``execution.backend``, e.g. ``"numpy"``).  The field is gone from new
manifests, but artifact directories written with it must still resume,
merge and ingest: every reader takes ``execution`` fields with ``.get`` and
ignores keys it does not know.
"""

import json

from repro.run import main


def _age(campaign_dir):
    """Rewrite a manifest the way an older run wrote it."""
    path = campaign_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["execution"]["backend"] = "numpy"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


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
    assert "backend" not in execution
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
    assert "backend" not in _execution(merged)
    for name in ("results.json", "results.csv"):
        assert (merged / name).read_bytes() == (tmp_path / "serial" / "smoke" / name).read_bytes()


def test_store_ingests_an_old_manifest(tmp_path, capsys):
    assert main(["sweep", "smoke", "--out", str(tmp_path)]) == 0
    _age(tmp_path / "smoke")
    db = str(tmp_path / "store.sqlite")
    assert main(["store", "ingest", str(tmp_path / "smoke"), "--db", db]) == 0
    assert "4 inserted" in capsys.readouterr().out
