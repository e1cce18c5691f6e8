"""One verdict per malformed artifact: every reader rejects the same damage.

``--resume``, ``sweep merge``, the fleet's acceptance gate and ``store
ingest`` all read artifact directories through one reader
(:func:`repro.sweep.artifacts.read_artifact_dir`).  Each row below damages
one record (or one wall timing) of a valid artifact directory, and each
entry point must reject it with its own error type and a message naming the
damaged file.  A manifest's telemetry block is checked the same way, so
the folds that sum it (merge, the fleet ledger) can trust it.
"""

import json
import shutil

import pytest

from repro.store import StoreError, connect, ingest_directories
from repro.sweep.artifacts import write_artifacts
from repro.sweep.campaign import CampaignSpec
from repro.sweep.execute import execute_campaign
from repro.sweep.merge import MergeError, load_shard_dir, merge_shards, validate_shard_dir
from repro.sweep.resume import ResumeError, load_reusable_results

SPEC = CampaignSpec(
    name="malformed-record-test",
    description="small campaign for the malformed-record table",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _drop_seed(results, manifest):
    del results["points"][1]["seed"]


def _extra_key(results, manifest):
    results["points"][1]["note"] = "hand-edited"


def _float_seed(results, manifest):
    results["points"][1]["seed"] = 12.7


def _bool_index(results, manifest):
    results["points"][1]["index"] = True


def _list_stats(results, manifest):
    results["points"][1]["stats"] = []


def _text_wall(results, manifest):
    manifest["execution"]["point_wall_seconds"]["1"] = "fast"


def _text_profile(results, manifest):
    manifest["execution"]["telemetry"]["profile"]["simulate"] = "fast"


def _float_counter(results, manifest):
    manifest["execution"]["telemetry"]["metrics"]["counter"]["kernel.dense_ticks"] = 1.5


def _text_histogram(results, manifest):
    manifest["execution"]["telemetry"]["metrics"]["histogram"]["sweep.point_wall_seconds"]["max"] = "slow"


RECORD_DAMAGE = r"results\.json.*malformed"
TELEMETRY_DAMAGE = r"manifest\.json: execution\.telemetry"
CASES = [
    pytest.param(_drop_seed, RECORD_DAMAGE, id="missing-key"),
    pytest.param(_extra_key, RECORD_DAMAGE, id="extra-key"),
    pytest.param(_float_seed, RECORD_DAMAGE, id="float-seed"),
    pytest.param(_bool_index, RECORD_DAMAGE, id="bool-index"),
    pytest.param(_list_stats, RECORD_DAMAGE, id="list-stats"),
    pytest.param(_text_wall, r"manifest\.json.*not numeric", id="text-wall"),
    pytest.param(_text_profile, rf"{TELEMETRY_DAMAGE}: profile phase 'simulate'", id="text-profile"),
    pytest.param(_float_counter, rf"{TELEMETRY_DAMAGE}: counter 'kernel\.dense_ticks'", id="float-counter"),
    pytest.param(_text_histogram, rf"{TELEMETRY_DAMAGE}: histogram", id="text-histogram"),
]


def _resume(campaign_dir, tmp_path):
    load_reusable_results(SPEC, campaign_dir.parent)


def _merge(campaign_dir, tmp_path):
    merge_shards([load_shard_dir(campaign_dir)])


def _accept(campaign_dir, tmp_path):
    validate_shard_dir(campaign_dir, SPEC)


def _ingest(campaign_dir, tmp_path):
    conn = connect(tmp_path / "store.sqlite")
    try:
        ingest_directories(conn, [campaign_dir])
    finally:
        conn.close()


ENTRY_POINTS = [
    pytest.param(_resume, ResumeError, id="load_reusable_results"),
    pytest.param(_merge, MergeError, id="merge_shards"),
    pytest.param(_accept, MergeError, id="validate_shard_dir"),
    pytest.param(_ingest, StoreError, id="ingest_directory"),
]


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    write_artifacts(SPEC, execute_campaign(SPEC, jobs=1), out)
    return out / SPEC.name


@pytest.mark.parametrize("damage, message", CASES)
@pytest.mark.parametrize("entry, error", ENTRY_POINTS)
def test_every_reader_rejects(valid_dir, tmp_path, entry, error, damage, message):
    campaign_dir = tmp_path / "out" / SPEC.name
    shutil.copytree(valid_dir, campaign_dir)
    results_path = campaign_dir / "results.json"
    manifest_path = campaign_dir / "manifest.json"
    results = json.loads(results_path.read_text())
    manifest = json.loads(manifest_path.read_text())
    damage(results, manifest)
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with pytest.raises(error, match=message):
        entry(campaign_dir, tmp_path)
    store = tmp_path / "store.sqlite"
    if store.exists():  # ingest must reject before writing anything
        conn = connect(store)
        assert conn.execute("SELECT COUNT(*) AS n FROM points").fetchone()["n"] == 0
        conn.close()


@pytest.mark.parametrize("entry, error", ENTRY_POINTS)
def test_every_reader_accepts_the_undamaged_directory(valid_dir, tmp_path, entry, error):
    campaign_dir = tmp_path / "out" / SPEC.name
    shutil.copytree(valid_dir, campaign_dir)
    entry(campaign_dir, tmp_path)
