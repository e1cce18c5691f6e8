"""The names ``perfbench/`` reaches into the program by must keep existing.

The benchmark patches kernel, batch and link methods by name for its
per-layer ``--trace 1`` run, and records which batch round loop ran.  A
refactor that renames one of those would break the benchmark only when it
is run; these tests break first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("bench", "layers", "probe"):
        sys.modules.pop(name, None)


def test_layer_wrappers_install_and_uninstall(perfbench):
    import layers

    from repro.sim.batch import BatchSimulator
    from repro.sim.simulator import SimState

    names = ("quiescent_span", "poll_dirty", "volatile_bound", "dense_tick", "skip_span")
    originals = {name: SimState.__dict__[name] for name in names}
    original_run = BatchSimulator.__dict__["run"]
    recorder = layers.Recorder()
    recorder.install()
    try:
        assert all(SimState.__dict__[name] is not originals[name] for name in names)
        assert BatchSimulator.__dict__["run"] is not original_run
    finally:
        recorder.uninstall()
    assert {name: SimState.__dict__[name] for name in names} == originals
    assert BatchSimulator.__dict__["run"] is original_run


def test_provenance_names_the_python_round_loop(perfbench):
    import bench

    assert bench.provenance()["backend"] == "python"
