"""The campaign artifacts committed under ``results/sweeps/`` are current.

Each committed campaign is run afresh into a temporary directory; its
``results.json`` and ``results.csv`` must match the committed files byte for
byte, so a model change that moves a result, or a campaign whose grid grew,
cannot leave stale numbers in the repository.  (The manifests carry wall
times and host details, so only the result artifacts are compared.)
"""

from pathlib import Path

import pytest

from repro.run import main

COMMITTED = Path(__file__).resolve().parents[2] / "results" / "sweeps"
CAMPAIGNS = ("fig5-long-horizon-power", "pipeline-clock-ratio", "watchdog-fault-injection")


def test_every_committed_campaign_is_listed():
    assert sorted(path.name for path in COMMITTED.iterdir() if path.is_dir()) == list(CAMPAIGNS)


@pytest.mark.parametrize("campaign", CAMPAIGNS)
def test_a_fresh_run_reproduces_the_committed_artifacts(campaign, tmp_path, capsys):
    assert main(["sweep", campaign, "--out", str(tmp_path)]) == 0
    for artifact in ("results.json", "results.csv"):
        fresh = (tmp_path / campaign / artifact).read_bytes()
        assert fresh == (COMMITTED / campaign / artifact).read_bytes(), f"{campaign}/{artifact} is stale"
