"""Span recording, nesting, Chrome-trace export, and the text tree."""

import json
import os
import threading
import time

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, SpanRecord, Tracer


class TestSpanRecording:
    def test_span_records_on_exit(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", kind="unit"):
            pass
        (record,) = tracer.spans
        assert record.name == "work"
        assert record.args == {"kind": "unit"}
        assert record.duration_ns >= 0
        assert record.pid == os.getpid()
        assert record.tid == threading.get_ident()

    def test_nesting_depth_and_ordering(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        # Spans record on close: children first, parent last.
        names = [r.name for r in tracer.spans]
        assert names == ["inner", "sibling", "outer"]
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["sibling"].depth == 1
        # The parent interval contains both children.
        outer = by_name["outer"]
        for child in ("inner", "sibling"):
            assert by_name[child].start_ns >= outer.start_ns
            assert by_name[child].end_ns <= outer.end_ns

    def test_depth_recovers_after_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (record,) = tracer.spans
        assert record.args["error"] == "RuntimeError"
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0

    def test_set_attaches_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("run", engine="superblock") as sp:
            sp.set(cycles=100, instructions=80)
        (record,) = tracer.spans
        assert record.args == {
            "engine": "superblock", "cycles": 100, "instructions": 80,
        }

    def test_span_ids_unique_and_increasing(self):
        tracer = Tracer(enabled=True)
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [r.span_id for r in tracer.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_add_span_replays_worker_records(self):
        tracer = Tracer(enabled=True)
        tracer.add_span(
            "chunk", start_ns=1000, duration_ns=500, pid=4242,
            args={"index": 3},
        )
        (record,) = tracer.spans
        assert record.pid == 4242
        assert record.start_ns == 1000
        assert record.end_ns == 1500
        assert record.args == {"index": 3}

    def test_reset_drops_records_keeps_enabled(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.spans == []
        assert tracer.enabled


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        assert tracer.span("other") is span

    def test_null_span_is_inert(self):
        with NULL_SPAN as sp:
            assert sp.set(anything=1) is NULL_SPAN
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        tracer.add_span("y", start_ns=0, duration_ns=1)
        assert tracer.spans == []

    def test_global_span_helper_respects_enabled(self, clean_obs):
        assert obs.span("x") is NULL_SPAN
        obs.enable()
        with obs.span("x"):
            pass
        assert [r.name for r in obs.get_tracer().spans] == ["x"]


class TestTracedDecorator:
    def test_traced_wraps_and_names(self, clean_obs):
        @obs.traced(name="custom.label")
        def work(a, b):
            return a + b

        obs.enable()
        assert work(2, 3) == 5
        (record,) = obs.get_tracer().spans
        assert record.name == "custom.label"

    def test_traced_bare_uses_qualname(self, clean_obs):
        @obs.traced
        def helper():
            return 7

        obs.enable()
        assert helper() == 7
        (record,) = obs.get_tracer().spans
        assert record.name.endswith("helper")

    def test_traced_disabled_records_nothing(self, clean_obs):
        @obs.traced
        def helper():
            return 7

        assert helper() == 7
        assert obs.get_tracer().spans == []


class TestChromeTraceExport:
    def test_complete_event_schema(self):
        tracer = Tracer(enabled=True)
        with tracer.span("artifact.table2", sha="abc"):
            time.sleep(0.001)
        payload = tracer.to_chrome_trace()
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "artifact.table2"
        assert event["cat"] == "artifact"
        assert event["pid"] == os.getpid()
        assert isinstance(event["ts"], float)
        assert event["dur"] > 0
        assert event["args"] == {"sha": "abc"}

    def test_timestamps_rebased_to_zero(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        events = tracer.to_chrome_trace()["traceEvents"]
        assert min(e["ts"] for e in events) == 0.0

    def test_counter_events_from_metrics_snapshot(self, clean_obs):
        obs.enable()
        obs.get_metrics().counter("cache.iss.hits").inc(3)
        obs.get_metrics().gauge("depth").set(2.5)
        with obs.get_tracer().span("s"):
            pass
        events = obs.get_tracer().to_chrome_trace(
            metrics=obs.get_metrics()
        )["traceEvents"]
        counters = {e["name"]: e for e in events if e["ph"] == "C"}
        assert counters["cache.iss.hits"]["args"] == {"value": 3}
        assert counters["depth"]["args"] == {"value": 2.5}

    def test_write_chrome_trace_valid_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        n = tracer.write_chrome_trace(path)
        assert n == 2
        data = json.loads(path.read_text(encoding="utf-8"))
        assert len(data["traceEvents"]) == 2

    def test_empty_trace_is_valid(self, tmp_path):
        tracer = Tracer(enabled=True)
        path = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(path) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["traceEvents"] == []


class TestRenderTree:
    def test_indentation_and_grouping(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.add_span("chunk", start_ns=0, duration_ns=10, pid=99999999)
        text = tracer.render_tree()
        lines = text.splitlines()
        assert any(line.startswith("[main tid=") for line in lines)
        assert any("[worker pid=99999999" in line for line in lines)
        outer_line = next(ln for ln in lines if "outer" in ln)
        inner_line = next(ln for ln in lines if "inner" in ln)
        indent = lambda s: len(s) - len(s.lstrip())  # noqa: E731
        assert indent(inner_line) > indent(outer_line)

    def test_empty_tracer_renders_placeholder(self):
        assert Tracer().render_tree() == "(no spans recorded)"

    def test_max_spans_truncation(self):
        tracer = Tracer(enabled=True)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        text = tracer.render_tree(max_spans=3)
        assert "more span(s)" in text


class TestEnvConfiguration:
    def test_env_requests_tracing_falsy_values(self):
        for value in ("", "0", "false", "No", "OFF"):
            assert not obs.env_requests_tracing({obs.ENV_TRACE: value})
        assert not obs.env_requests_tracing({})
        for value in ("1", "true", "yes", "spans"):
            assert obs.env_requests_tracing({obs.ENV_TRACE: value})

    def test_enabled_scope_restores(self, clean_obs):
        assert not obs.enabled()
        with obs.enabled_scope():
            assert obs.enabled()
        assert not obs.enabled()


class TestSpanRecord:
    def test_derived_properties(self):
        record = SpanRecord(
            span_id=1, name="s", start_ns=10, duration_ns=2_000_000_000,
            pid=1, tid=1, depth=0,
        )
        assert record.end_ns == 2_000_000_010
        assert record.duration_s == pytest.approx(2.0)
