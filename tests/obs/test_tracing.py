"""Tracer lifecycle and the Chrome trace-event document layer."""

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import DEFAULT_MAX_EVENTS, SpanTracer
from repro.obs.traceio import (
    TRACE_SCHEMA,
    merge_trace_documents,
    summarize_trace,
    trace_document,
    validate_trace,
    validate_trace_file,
    write_trace,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert tracing.TRACER is None
    yield
    tracing.uninstall()


class TestTracerLifecycle:
    def test_disabled_by_default(self):
        assert tracing.TRACER is None

    def test_install_uninstall_round_trip(self):
        tracer = tracing.install()
        assert tracing.TRACER is tracer
        assert tracing.uninstall() is tracer
        assert tracing.TRACER is None

    def test_capture_restores_the_previous_tracer(self):
        outer = tracing.install()
        with tracing.capture() as inner:
            assert tracing.TRACER is inner
            assert inner is not outer
        assert tracing.TRACER is outer

    def test_event_records_complete_span_in_microseconds(self):
        tracer = SpanTracer()
        tracer.event("work", "test", 2_000, 3_000, {"n": 1})
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(2.0)
        assert event["dur"] == pytest.approx(3.0)
        assert event["args"] == {"n": 1}
        assert event["pid"] == tracer.pid

    def test_span_context_manager_times_its_body_and_takes_args(self):
        with tracing.capture() as tracer:
            with tracing.span("phase", "test", label="a") as args:
                args["result"] = 42
        (event,) = tracer.events
        assert event["name"] == "phase"
        assert event["ph"] == "X"
        assert event["args"] == {"label": "a", "result": 42}
        assert event["dur"] >= 0

    def test_span_is_emitted_when_its_body_raises(self):
        with tracing.capture() as tracer:
            with pytest.raises(RuntimeError, match="boom"):
                with tracing.span("phase", "test", label="a"):
                    raise RuntimeError("boom")
        (event,) = tracer.events
        assert event["name"] == "phase"
        assert event["args"] == {"label": "a"}

    def test_span_emits_nothing_without_a_tracer(self):
        with tracing.capture() as tracer:
            tracing.uninstall()
            with tracing.span("phase", "test", label="a") as args:
                args["result"] = 42
        assert args == {"label": "a", "result": 42}  # the body still runs
        assert tracer.events == []

    def test_buffer_cap_counts_drops_instead_of_growing(self):
        tracer = SpanTracer()
        tracer.events = [{}] * DEFAULT_MAX_EVENTS
        tracer.event("over", "test", 0, 1)
        tracer.event("over", "test", 1, 1)
        assert len(tracer.events) == DEFAULT_MAX_EVENTS
        assert tracer.dropped == 2

    def test_drain_returns_and_clears(self):
        tracer = SpanTracer()
        tracer.event("a", "test", 0, 1)
        drained = tracer.drain()
        assert len(drained) == 1
        assert tracer.events == []


class TestTraceDocument:
    def _events(self):
        tracer = SpanTracer()
        tracer.event("a", "test", 5_000, 1_000)
        tracer.event("b", "test", 7_000, 2_000)
        return tracer.drain()

    def test_document_validates_and_rebases_to_zero(self):
        document = trace_document(self._events())
        validate_trace(document)
        assert document["schema"] == TRACE_SCHEMA
        spans = [event for event in document["traceEvents"] if event["ph"] == "X"]
        assert spans[0]["ts"] == 0.0
        assert spans[1]["ts"] == pytest.approx(2.0)

    def test_document_carries_lane_metadata_and_labels(self):
        events = self._events()
        pid = events[0]["pid"]
        document = trace_document(events, labels={pid: "worker-0"})
        lanes = [event for event in document["traceEvents"] if event["ph"] == "M"]
        assert lanes == [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": "worker-0"}}
        ]

    def test_validate_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_trace([])
        with pytest.raises(ValueError, match="schema"):
            validate_trace({"schema": "other/9"})
        document = trace_document(self._events())
        document["traceEvents"].append({"ph": "Q", "name": "x", "pid": 1, "tid": 0})
        with pytest.raises(ValueError, match=r"traceEvents\[\d+\]"):
            validate_trace(document)

    def test_validate_rejects_negative_durations(self):
        document = trace_document(self._events())
        document["traceEvents"][-1]["dur"] = -1.0
        with pytest.raises(ValueError, match="dur"):
            validate_trace(document)

    def test_write_and_validate_file_round_trip(self, tmp_path):
        path = write_trace(tmp_path / "trace.json", trace_document(self._events()))
        document = validate_trace_file(path)
        assert json.loads(path.read_text())["schema"] == TRACE_SCHEMA
        assert summarize_trace(document)["spans"] == 2

    def test_validate_file_diagnoses_missing_and_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="unreadable"):
            validate_trace_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            validate_trace_file(bad)

    def test_dropped_events_are_declared_in_metadata(self):
        document = trace_document(self._events(), dropped=7)
        assert document["metadata"]["dropped_events"] == 7


class TestMergeAndSummary:
    def _document(self, label):
        tracer = SpanTracer()
        tracer.event("kernel.span", "kernel", 1_000, 2_000)
        # A counter sample as traces written by earlier releases carry them.
        tracer.events.append(
            {
                "name": "batch.live",
                "cat": "batch",
                "ph": "C",
                "ts": 3.0,
                "pid": tracer.pid,
                "tid": 0,
                "args": {"instances": 2},
            }
        )
        return trace_document(tracer.drain(), labels={tracer.pid: label})

    def test_merge_remaps_pids_into_disjoint_shard_lanes(self):
        merged = merge_trace_documents(
            [self._document("host-a"), self._document("host-b")], ["shard-0", "shard-1"]
        )
        validate_trace(merged)
        lanes = {
            event["pid"]: event["args"]["name"]
            for event in merged["traceEvents"]
            if event["ph"] == "M"
        }
        assert lanes == {1000: "shard-0/host-a", 2000: "shard-1/host-b"}
        assert merged["metadata"]["merged_from"] == ["shard-0", "shard-1"]

    def test_merge_accumulates_dropped_counts(self):
        first = self._document("a")
        first["metadata"]["dropped_events"] = 3
        merged = merge_trace_documents([first, self._document("b")], ["s0", "s1"])
        assert merged["metadata"]["dropped_events"] == 3

    def test_merge_requires_one_label_per_document(self):
        with pytest.raises(ValueError, match="label"):
            merge_trace_documents([self._document("a")], [])

    def test_summarize_counts_per_category(self):
        summary = summarize_trace(self._document("a"))
        assert summary["spans"] == 1
        assert summary["categories"]["kernel"]["events"] == 1
        assert summary["categories"]["kernel"]["span_ms"] == pytest.approx(0.002)
        assert summary["categories"]["batch"]["events"] == 1


class TestKernelEmitsSpans:
    def test_simulator_run_produces_a_valid_trace(self):
        from repro.power.scenarios import build_idle_measurement_soc

        with tracing.capture() as tracer:
            soc = build_idle_measurement_soc("pels", frequency_hz=27e6)
            soc.pwm.regs.reg("PERIOD").write(128)
            soc.pwm.start()
            soc.run(50_000)
        document = trace_document(tracer.drain(), dropped=tracer.dropped)
        validate_trace(document)
        names = {event["name"] for event in document["traceEvents"] if event["ph"] != "M"}
        assert "kernel.plan" in names
        assert "kernel.span" in names

    def test_tracing_does_not_perturb_kernel_stats(self):
        from repro.power.scenarios import build_idle_measurement_soc

        def run():
            soc = build_idle_measurement_soc("pels", frequency_hz=27e6)
            soc.pwm.regs.reg("PERIOD").write(128)
            soc.pwm.start()
            soc.run(50_000)
            return dict(soc.simulator.kernel_stats)

        plain = run()
        with tracing.capture():
            traced = run()
        assert plain == traced
