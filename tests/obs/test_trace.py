"""The trace sink, the observer tee, and the JSONL schema."""

from __future__ import annotations

import json

import pytest

from repro.core.simulator import EVENT_KINDS
from repro.obs import names
from repro.obs.registry import MetricsRegistry, installed as metrics_installed
from repro.obs.trace import (
    EVENT_METRICS,
    SCHEMA,
    TraceSink,
    installed,
    instrumented_observer,
    read_jsonl,
    span,
    write_jsonl,
)


class TestSink:
    def test_event_and_span_records(self):
        sink = TraceSink()
        sink.event("hit", 12.5, "/a")
        sink.span("engine.task", 0.25, {"index": 3})
        sink.span("engine.map", 0.5)
        assert len(sink) == 3
        assert sink.records[0] == {
            "type": "event", "kind": "hit", "t": 12.5, "id": "/a"
        }
        assert sink.records[1]["meta"] == {"index": 3}
        assert "meta" not in sink.records[2]

    def test_events_filters_spans_out(self):
        sink = TraceSink()
        sink.span("engine.map", 0.1)
        sink.event("miss", 1.0, "/b")
        assert sink.events() == [
            {"type": "event", "kind": "miss", "t": 1.0, "id": "/b"}
        ]

    def test_span_helper_noop_without_sink(self):
        span("engine.map", 0.1, tasks=3)  # must not raise

    def test_span_helper_records_on_active_sink(self):
        sink = TraceSink()
        with installed(sink):
            span("engine.map", 0.1, tasks=3)
        assert sink.records == [
            {"type": "span", "name": "engine.map", "wall": 0.1,
             "meta": {"tasks": 3}}
        ]


class TestObserverTee:
    def test_passthrough_when_fully_disabled(self):
        def observer(kind, t, oid):
            pass

        assert instrumented_observer(observer) is observer
        assert instrumented_observer(None) is None

    def test_tee_records_counts_and_forwards(self):
        seen = []
        sink = TraceSink()
        registry = MetricsRegistry()
        with installed(sink), metrics_installed(registry):
            tee = instrumented_observer(
                lambda kind, t, oid: seen.append((kind, t, oid))
            )
            assert tee is not None
            tee("stale_hit", 42.0, "/x")
            tee("stale_hit", 43.0, "/x")
            tee("miss", 44.0, "/y")
        assert seen == [
            ("stale_hit", 42.0, "/x"),
            ("stale_hit", 43.0, "/x"),
            ("miss", 44.0, "/y"),
        ]
        assert [r["kind"] for r in sink.events()] == [
            "stale_hit", "stale_hit", "miss"
        ]
        dump = registry.as_dict()["counters"]
        assert dump["sim.event.stale_hit"] == 2.0
        assert dump["sim.event.miss"] == 1.0

    def test_tee_without_downstream_observer(self):
        sink = TraceSink()
        with installed(sink):
            tee = instrumented_observer(None)
            assert tee is not None
            tee("hit", 1.0, "/a")
        assert sink.events()[0]["kind"] == "hit"


class TestEventAlphabet:
    def test_event_metrics_bijective_with_simulator_kinds(self):
        # Every simulator event kind has exactly one tee counter; the
        # fault_* kinds included.  RPR006 keeps the values declared.
        assert set(EVENT_METRICS) == set(EVENT_KINDS)
        values = list(EVENT_METRICS.values())
        assert len(values) == len(set(values))
        for kind, metric in EVENT_METRICS.items():
            assert metric == f"sim.event.{kind}"
            assert names.is_metric(metric)

    def test_span_names_declared(self):
        for span_name in ("engine.map", "engine.task", "sweep.run",
                          "verify.run"):
            assert names.is_span(span_name)


class TestJsonl:
    def test_roundtrip_with_header(self, tmp_path):
        sink = TraceSink()
        sink.event("hit", 1.0, "/a")
        sink.span("engine.map", 0.5, {"tasks": 2})
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(sink, path) == 3  # header + 2 records
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"type": "header", "schema": SCHEMA}
        assert read_jsonl(path) == sink.records

    def test_sink_with_a_path_appends_each_record_as_it_is_made(
        self, tmp_path
    ):
        """The SIGKILL-able proxy's sink: records are on disk before
        any teardown, and a second lifetime appends to the same file —
        cutting off the line its predecessor was killed in."""
        path = tmp_path / "trace.jsonl"
        first = TraceSink(proc="proxy", path=path)
        write_jsonl(first, path)  # whoever starts the file: header only
        first.mark("live.trace.recv", "r0", 1.0)
        first.span("live.trace.reply", 0.5, {"trace": "r0", "clk": 2.0})
        assert read_jsonl(path) == first.records
        with open(path, "ab") as fh:
            fh.write(b'{"type": "mark", "ki')  # SIGKILL here
        second = TraceSink(proc="proxy", path=path)
        second.mark("live.trace.restore", None, 3.0, records=2)
        second.mark("live.trace.recv", "r1", 4.0)
        assert read_jsonl(path) == first.records + second.records

    def test_read_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"type": "event"}\n')
        with pytest.raises(ValueError, match="header"):
            read_jsonl(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(path)
