"""``run_until`` sees a PELS link finish on the exact cycle.

While stepping, PELS replays the fetch of ``end`` inside a skip, so the
cycle a link goes idle and closes its event record can fall in the middle
of a span.  ``run_until`` re-evaluates its condition only at span
boundaries, so while it polls (``SimState.polling``) the fetch of ``end``
stays a wake.  These tests poll ``last_record``, ``busy`` and
``events_serviced`` on the multi-link pipeline and the minimal linking
event, and require the same cycle counts and the same state from the
dense and the event kernel.
"""

from repro.soc.pulpissimo import SocConfig, build_soc
from repro.workloads.minimal import run_minimal_pels_linking
from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline


def _pels_state(simulator, pels):
    return (
        simulator.current_cycle,
        simulator.activity.as_dict(),
        tuple((tuple(link.records), link.events_serviced) for link in pels.links),
    )


class TestPipelinePolling:
    @staticmethod
    def _polls(dense):
        prepared = prepare_multi_link_pipeline(MultiLinkPipelineConfig(horizon_cycles=5_000, dense=dense))
        simulator = prepared.simulator
        pels = prepared.soc.pels
        observed = []
        # Link 2 is the blinker, link 0 starts the ADC, link 1 writes the UART.
        for index in (2, 0, 1, 2):
            link = pels.link(index)
            previous = link.last_record
            cycles = simulator.run_until(lambda: link.last_record is not previous, max_cycles=2_000)
            observed.append(("last_record", index, cycles, _pels_state(simulator, pels)))
            target = link.events_serviced + 1
            cycles = simulator.run_until(lambda: link.events_serviced >= target, max_cycles=2_000)
            observed.append(("events_serviced", index, cycles, _pels_state(simulator, pels)))
            cycles = simulator.run_until(lambda: not pels.busy, max_cycles=2_000)
            observed.append(("busy", index, cycles, _pels_state(simulator, pels)))
        return observed, simulator.kernel_stats

    def test_event_kernel_polls_like_dense(self):
        dense, _ = self._polls(dense=True)
        event, stats = self._polls(dense=False)
        assert event == dense
        assert stats["cycles_skipped"] > 0
        # Each poll ran to a link finishing, so none returned at once.
        assert all(cycles > 0 for kind, _, cycles, _ in dense if kind == "last_record")


class TestMinimalPolling:
    def test_event_kernel_polls_like_dense(self):
        """The minimal linking event polls ``last_record`` until the link's
        ``end``; with the instant action the whole sequence is one quiet run
        that finishes, which only ``run_until`` keeps exact."""
        for instant in (True, False):
            results = []
            for dense in (True, False):
                soc = build_soc(SocConfig(dense=dense))
                result = run_minimal_pels_linking(instant=instant, soc=soc)
                results.append((result, _pels_state(soc.simulator, soc.pels), soc.gpio.output_value))
            assert results[0] == results[1], instant
