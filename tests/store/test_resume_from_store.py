"""--resume-from-store: byte-identity with manifest resume, validation."""

from dataclasses import replace

import pytest

from repro.store import StoreError, connect, ingest_directories, load_reusable_results_from_store
from repro.sweep.artifacts import write_artifacts
from repro.sweep.campaign import CampaignSpec
from repro.sweep.execute import execute_campaign
from repro.sweep.resume import ResumeError, load_reusable_results

SPEC = CampaignSpec(
    name="store-resume-test",
    description="small store-resume-test campaign",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (40_000, 60_000),
        "sample_period_cycles": (2_000, 4_000),
    },
)


@pytest.fixture()
def populated(tmp_path):
    """Fresh artifacts at tmp_path/fresh/<name>, ingested into a store."""
    result = execute_campaign(SPEC, jobs=1)
    paths = write_artifacts(SPEC, result, tmp_path / "fresh")
    db_path = tmp_path / "store.sqlite"
    conn = connect(db_path)
    ingest_directories(conn, [tmp_path / "fresh" / SPEC.name])
    conn.close()
    return paths, db_path


class TestLoadFromStore:
    def test_recovers_every_point_with_timings(self, populated):
        _, db_path = populated
        reusable = load_reusable_results_from_store(SPEC, db_path)
        assert sorted(reusable) == [0, 1, 2, 3]
        for point in reusable.values():
            assert point.reused is True
            assert point.wall_seconds > 0

    def test_matches_manifest_resume_exactly(self, tmp_path, populated):
        """The two resume paths go through the same validation gate and must
        hand back the same points — this is what makes them interchangeable."""
        _, db_path = populated
        from_store = load_reusable_results_from_store(SPEC, db_path)
        from_manifest = load_reusable_results(SPEC, tmp_path / "fresh")
        assert sorted(from_store) == sorted(from_manifest)
        for index in from_manifest:
            store_point, manifest_point = from_store[index], from_manifest[index]
            assert store_point.stats == manifest_point.stats
            assert store_point.power_uw == manifest_point.power_uw
            assert store_point.area_kge == manifest_point.area_kge
            assert store_point.seed == manifest_point.seed
            assert store_point.wall_seconds == manifest_point.wall_seconds

    def test_resumed_run_is_byte_identical(self, tmp_path, populated):
        """The acceptance criterion: resuming purely from the store recomputes
        nothing and reproduces the artifacts byte for byte."""
        fresh_paths, db_path = populated
        reuse = load_reusable_results_from_store(SPEC, db_path)
        resumed = execute_campaign(SPEC, jobs=1, reuse=reuse)
        assert resumed.n_reused == 4
        resumed_paths = write_artifacts(SPEC, resumed, tmp_path / "resumed")
        for key in ("results_json", "results_csv"):
            assert resumed_paths[key].read_bytes() == fresh_paths[key].read_bytes()

    def test_unknown_campaign_means_no_reuse(self, populated):
        _, db_path = populated
        other = replace(SPEC, name="never-ingested", base_seed=3)
        assert load_reusable_results_from_store(other, db_path) == {}

    def test_missing_database_is_an_error(self, tmp_path):
        # An explicit store path that doesn't exist is a typo, not a cue to
        # silently recompute the whole campaign.
        with pytest.raises(StoreError, match="no such store database"):
            load_reusable_results_from_store(SPEC, tmp_path / "typo.sqlite")

    def test_tampered_record_disagreeing_with_expansion_raises(self, populated):
        _, db_path = populated
        conn = connect(db_path)
        conn.execute("UPDATE points SET seed = seed + 1 WHERE point_index = 1")
        conn.commit()
        conn.close()
        with pytest.raises(ResumeError, match="disagrees with the current expansion"):
            load_reusable_results_from_store(SPEC, db_path)


class TestCliResumeFromStore:
    def test_cli_reuses_everything_byte_identically(self, tmp_path, capsys):
        from repro.run import main

        assert main(["sweep", "smoke", "--out", str(tmp_path / "a")]) == 0
        assert main(["store", "ingest", str(tmp_path / "a" / "smoke"), "--db", str(tmp_path / "db")]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "sweep",
                    "smoke",
                    "--out",
                    str(tmp_path / "b"),
                    "--resume-from-store",
                    str(tmp_path / "db"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 reused" in out
        for name in ("results.json", "results.csv"):
            assert (tmp_path / "b" / "smoke" / name).read_bytes() == (
                tmp_path / "a" / "smoke" / name
            ).read_bytes()

    def test_cli_missing_store_is_exit_2(self, tmp_path, capsys):
        from repro.run import main

        code = main(
            ["sweep", "smoke", "--out", str(tmp_path), "--resume-from-store", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "--resume-from-store" in capsys.readouterr().err
