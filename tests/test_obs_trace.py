"""Tests for trace spans: nesting, propagation headers, sinks, tree views."""

import pytest

from repro import obs
from repro.obs.trace import _NULL_SPAN, NullSpanSink, SpanSink


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


class TestDisabledPath:
    def test_span_is_shared_noop(self):
        first = obs.span("a")
        second = obs.span("b", tags={"x": 1})
        assert first is _NULL_SPAN
        assert first is second
        with first as sp:
            sp.set_tag("k", "v")
            sp.set_error("nope")
            assert obs.current_header() is None
        assert obs.get_sink().export() == []

    def test_remote_span_without_header_is_noop_even_enabled(self):
        obs.enable_tracing()
        assert obs.remote_span("w", None) is _NULL_SPAN


class TestNesting:
    def test_children_parent_automatically(self):
        sink = obs.enable_tracing()
        sink.clear()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = sink.export()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["duration"] >= 0.0

    def test_sibling_roots_get_distinct_traces(self):
        sink = obs.enable_tracing()
        sink.clear()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        a, b = sink.export()
        assert a["trace_id"] != b["trace_id"]

    def test_exception_marks_error_and_still_records(self):
        sink = obs.enable_tracing()
        sink.clear()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("kaput")
        (record,) = sink.export()
        assert record["status"] == "error"
        assert "kaput" in record["tags"]["error"]

    def test_tags_ride_the_record(self):
        sink = obs.enable_tracing()
        sink.clear()
        with obs.span("tagged", tags={"shard": 3}) as sp:
            sp.set_tag("outcome", "live")
        (record,) = sink.export()
        assert record["tags"] == {"shard": 3, "outcome": "live"}


class TestPropagation:
    def test_header_names_the_innermost_span(self):
        obs.enable_tracing()
        assert obs.current_header() is None
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                header = obs.current_header()
                assert header == {
                    "trace_id": outer.trace_id, "span_id": inner.span_id,
                }

    def test_remote_span_chains_across_the_header(self):
        sink = obs.enable_tracing()
        sink.clear()
        with obs.span("coordinator") as coordinator:
            header = obs.current_header()
        # simulate the far side of a process boundary
        with obs.remote_span("worker", header, tags={"worker": 0}) as worker:
            assert worker.trace_id == coordinator.trace_id
            assert worker.parent_id == coordinator.span_id
        trees = sink.trees(trace_id=coordinator.trace_id)
        assert len(trees) == 1
        assert [c["span"]["name"] for c in trees[0]["children"]] == ["worker"]


class TestSink:
    def test_ring_buffer_evicts_oldest(self):
        sink = SpanSink(capacity=3)
        for i in range(5):
            sink.record({"span_id": str(i), "trace_id": "t", "parent_id": None,
                         "start": float(i), "name": f"s{i}"})
        assert [r["span_id"] for r in sink.export()] == ["2", "3", "4"]
        assert len(sink) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SpanSink(capacity=0)

    def test_ingest_folds_remote_records_in(self):
        sink = SpanSink()
        sink.ingest([{"span_id": "w", "trace_id": "t", "parent_id": None,
                      "start": 0.0, "name": "remote"}])
        assert sink.export()[0]["name"] == "remote"

    def test_null_sink_reports_empty(self):
        sink = NullSpanSink()
        sink.record({"span_id": "x"})
        sink.ingest([{"span_id": "y"}])
        assert sink.export() == []
        assert sink.trees() == []
        assert len(sink) == 0


def _record(span_id, parent_id, start, name="s", trace_id="t", status="ok"):
    return {
        "span_id": span_id, "parent_id": parent_id, "trace_id": trace_id,
        "start": start, "name": name, "duration": 0.001, "status": status,
        "pid": 1, "tags": {},
    }


class TestTrees:
    def test_orphans_surface_as_roots(self):
        records = [
            _record("a", None, 0.0, "root"),
            _record("b", "a", 1.0, "child"),
            _record("c", "gone", 2.0, "orphan"),  # parent fell off the ring
        ]
        roots = obs.span_trees(records)
        assert [r["span"]["name"] for r in roots] == ["root", "orphan"]
        assert roots[0]["children"][0]["span"]["name"] == "child"

    def test_children_sorted_by_start(self):
        records = [
            _record("a", None, 0.0),
            _record("late", "a", 5.0, "late"),
            _record("early", "a", 1.0, "early"),
        ]
        (root,) = obs.span_trees(records)
        assert [c["span"]["name"] for c in root["children"]] == ["early", "late"]

    def test_trace_id_filter(self):
        records = [
            _record("a", None, 0.0, trace_id="one"),
            _record("b", None, 0.0, trace_id="two"),
        ]
        assert len(obs.span_trees(records)) == 2
        assert len(obs.span_trees(records, trace_id="one")) == 1

    def test_render_tree_marks_errors_and_indents(self):
        records = [
            _record("a", None, 0.0, "root"),
            _record("b", "a", 1.0, "bad", status="error"),
        ]
        (root,) = obs.span_trees(records)
        lines = list(obs.render_tree(root))
        assert "root" in lines[0]
        assert lines[1].startswith("  !")
        assert "bad" in lines[1]


class TestSinkEdgeCases:
    """Ring-buffer behaviour at the margins: evicted parents, arrival-order
    eviction, ingest under the same bound."""

    def test_evicted_parent_orphans_its_children_into_roots(self):
        sink = SpanSink(capacity=2)
        sink.record(_record("parent", None, 0.0, "parent"))
        sink.record(_record("child1", "parent", 1.0, "child1"))
        sink.record(_record("child2", "parent", 2.0, "child2"))
        # the parent fell off the ring: both children surface as roots
        assert [r["span_id"] for r in sink.export()] == ["child1", "child2"]
        roots = sink.trees()
        assert [r["span"]["name"] for r in roots] == ["child1", "child2"]
        assert all(not r["children"] for r in roots)

    def test_eviction_order_is_arrival_not_start_time(self):
        sink = SpanSink(capacity=2)
        # arrival order deliberately disagrees with start-time order
        sink.record(_record("late", None, 9.0))
        sink.record(_record("early", None, 1.0))
        sink.record(_record("mid", None, 5.0))
        # "late" arrived first, so it is the one evicted
        assert [r["span_id"] for r in sink.export()] == ["early", "mid"]

    def test_ingest_respects_the_same_ring_bound(self):
        sink = SpanSink(capacity=3)
        sink.record(_record("own", None, 0.0))
        sink.ingest([_record(f"r{i}", None, float(i)) for i in range(5)])
        assert [r["span_id"] for r in sink.export()] == ["r2", "r3", "r4"]
