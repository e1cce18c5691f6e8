"""The span table in ``docs/observability.md`` is the tracing contract.

One traced pass over every instrumented region — a dense and an
event-driven ``step``, a ``run_until`` that times out, a batched ``smoke``
sweep, one solo point, and a store ingest plus query — must emit exactly
the table's span names, each with exactly the args keys its row lists.
"""

from pathlib import Path

import pytest

from repro.obs import tracing
from repro.sim import SimulationError, Simulator
from repro.sim.component import Component
from repro.store import connect, ingest_directories, select_rows
from repro.sweep import campaign, execute_campaign, expand_campaign, write_artifacts
from repro.sweep.execute import run_point

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


class Blinker(Component):
    wake_cacheable = True

    def __init__(self, period):
        super().__init__("blinker")
        self.countdown = self.period = period

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.countdown = self.period

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles


def _span_table():
    """``{name: (cat, args keys)}`` from the table headed ``| span |``."""
    lines = DOC.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| span "))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, cat, args = (cell.strip() for cell in line.strip("|").split("|")[:3])
        rows[name.strip("`")] = (cat, {key.strip() for key in args.split(",")})
    return rows


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert tracing.TRACER is None
    yield
    tracing.uninstall()


def _emit_every_span(tmp_path):
    spec = campaign("smoke")
    with tracing.capture() as tracer:
        dense = Simulator(dense=True)
        dense.add_component(Blinker(7))
        dense.step(100)
        event_driven = Simulator()
        event_driven.add_component(Blinker(7))
        event_driven.step(100)
        with pytest.raises(SimulationError, match="never"):
            event_driven.run_until(lambda: False, max_cycles=50, label="never")
        result = execute_campaign(spec)
        run_point(expand_campaign(spec)[0])
        write_artifacts(spec, result, tmp_path)
        conn = connect(tmp_path / "store.sqlite")
        try:
            ingest_directories(conn, [tmp_path / spec.name])
            select_rows(conn, campaign=spec.name)
        finally:
            conn.close()
    return tracer.drain()


def test_emitted_spans_match_the_documented_table(tmp_path):
    table = _span_table()
    events = _emit_every_span(tmp_path)
    assert {event["name"] for event in events} == set(table)
    for event in events:
        cat, keys = table[event["name"]]
        assert event["ph"] == "X"
        assert event["cat"] == cat, event
        assert set(event["args"]) == keys, event


def test_a_timed_out_run_until_still_reports_its_cycles():
    simulator = Simulator()
    simulator.add_component(Blinker(7))
    with tracing.capture() as tracer:
        with pytest.raises(SimulationError):
            simulator.run_until(lambda: False, max_cycles=50, label="never")
    (wait,) = [event for event in tracer.events if event["name"] == "kernel.run_until"]
    assert wait["args"] == {"label": "never", "cycles": 50}
