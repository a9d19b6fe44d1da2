"""The observability core: trace contexts, span recording, stores, tooling.

Covers :mod:`repro.obs` in isolation — traceparent wire round trips,
span nesting through the tracer's context variable, ring-buffer
eviction, JSONL export/import, tree rendering, the structured-log
formatter and the opt-in profiler hook.  Propagation through the
serving stack lives in tests/test_tracing.py.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.errors import ValidationError
from repro.obs import clock
from repro.obs.logging import (
    JsonLogFormatter,
    configure_json_logging,
    log_slow_request,
)
from repro.obs.profile import maybe_profile, profile_summary
from repro.obs.trace import (
    SpanContext,
    SpanRecord,
    TraceStore,
    Tracer,
    format_traceparent,
    maybe_span,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_trace,
    spans_from_jsonl,
    spans_to_jsonl,
    summarize_traces,
)


class TestClock:
    def test_monotonic_never_goes_backwards(self):
        first = clock.monotonic()
        assert clock.monotonic() >= first

    def test_perf_counter_advances(self):
        first = clock.perf_counter()
        assert clock.perf_counter() >= first

    def test_wall_clock_is_plausible_epoch(self):
        assert clock.wall_clock() > 1.5e9  # after 2017, as seconds


class TestTraceparent:
    def test_round_trip(self):
        context = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        parsed = parse_traceparent(format_traceparent(context))
        assert parsed == context

    def test_ids_are_well_formed_and_distinct(self):
        trace_ids = {new_trace_id() for _ in range(32)}
        span_ids = {new_span_id() for _ in range(32)}
        assert len(trace_ids) == 32 and len(span_ids) == 32
        assert all(len(t) == 32 and int(t, 16) >= 0 for t in trace_ids)
        assert all(len(s) == 16 and int(s, 16) >= 0 for s in span_ids)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not-a-traceparent",
            "00-abc-def-01",  # wrong widths
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "01-" + "1" * 32 + "-" + "1" * 16 + "-01",  # unknown version
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "1" * 32 + "-" + "1" * 16,  # missing flags field
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_traceparent(text)


class TestTracer:
    def test_span_nesting_follows_context(self):
        store = TraceStore()
        tracer = Tracer(store)
        with tracer.span("request") as root:
            with tracer.span("child") as child:
                assert tracer.current() == child.context
            assert tracer.current() == root.context
        assert tracer.current() is None
        spans = store.get(root.trace_id)
        assert {s.name for s in spans} == {"request", "child"}
        child_record = next(s for s in spans if s.name == "child")
        assert child_record.parent_id == root.span_id
        assert child_record.trace_id == root.trace_id

    def test_nested_timings_are_monotone(self):
        store = TraceStore()
        tracer = Tracer(store)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = {s.name: s for s in store.get(outer.trace_id)}
        inner, outer_rec = spans["inner"], spans["outer"]
        assert outer_rec.start <= inner.start <= inner.end <= outer_rec.end

    def test_explicit_parent_and_backdated_start(self):
        store = TraceStore()
        tracer = Tracer(store)
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        before = clock.perf_counter() - 1.0
        with tracer.span("request", parent=parent, start=before) as span:
            pass
        record = store.get(parent.trace_id)[0]
        assert record.parent_id == parent.span_id
        assert record.start == before
        assert record.duration >= 1.0
        assert span.trace_id == parent.trace_id

    def test_record_pre_timed_span(self):
        store = TraceStore()
        tracer = Tracer(store)
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        record = tracer.record(
            "queue_wait", parent=parent, start=1.0, end=1.5, attrs={"k": "v"}
        )
        assert record.duration == pytest.approx(0.5)
        assert store.get(parent.trace_id) == [record]

    def test_record_with_chosen_span_id(self):
        tracer = Tracer(TraceStore())
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        chosen = new_span_id()
        record = tracer.record(
            "backend_chunk", parent=parent, start=0.0, end=1.0,
            span_id=chosen,
        )
        assert record.span_id == chosen

    def test_activate_restore_moves_context_across_threads(self):
        import threading

        tracer = Tracer(TraceStore())
        results = {}
        with tracer.span("root") as root:
            context = tracer.current()

            def worker():
                results["before"] = tracer.current()
                token = tracer.activate(context)
                try:
                    results["during"] = tracer.current()
                finally:
                    tracer.restore(token)
                results["after"] = tracer.current()

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert results["before"] is None  # contextvars don't cross threads
        assert results["during"] == root.context
        assert results["after"] is None

    def test_child_span_without_active_trace_is_noop(self):
        store = TraceStore()
        tracer = Tracer(store)
        with tracer.child_span("backend_chunk") as span:
            assert span is None
        assert len(store) == 0

    def test_maybe_span_none_tracer_is_shared_noop(self):
        first = maybe_span(None, "evaluate")
        second = maybe_span(None, "terms")
        assert first is second  # one shared nullcontext, zero allocation
        with first as span:
            assert span is None

    def test_observer_sees_every_finished_span(self):
        tracer = Tracer()
        seen = []
        tracer.observer = seen.append
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [record.name for record in seen] == ["b", "a"]

    def test_mutable_attrs_settable_before_exit(self):
        store = TraceStore()
        tracer = Tracer(store)
        with tracer.span("request") as span:
            span.attrs["status"] = "done"
        assert store.snapshot()[0].attrs["status"] == "done"


class TestTraceStore:
    def _add_trace(self, store, name="request"):
        trace_id = new_trace_id()
        store.add(
            SpanRecord(
                trace_id=trace_id,
                span_id=new_span_id(),
                parent_id=None,
                name=name,
                start=0.0,
                end=1.0,
            )
        )
        return trace_id

    def test_capacity_evicts_oldest_and_counts_drops(self):
        store = TraceStore(capacity=2)
        first = self._add_trace(store)
        second = self._add_trace(store)
        third = self._add_trace(store)
        assert len(store) == 2
        assert store.dropped == 1
        assert store.get(first) is None
        assert store.get(second) is not None and store.get(third) is not None

    def test_touching_a_trace_refreshes_recency(self):
        store = TraceStore(capacity=2)
        first = self._add_trace(store)
        second = self._add_trace(store)
        store.add(  # touch `first` so `second` becomes the LRU victim
            SpanRecord(
                trace_id=first, span_id=new_span_id(), parent_id=None,
                name="child", start=0.0, end=0.5,
            )
        )
        self._add_trace(store)
        assert store.get(first) is not None
        assert store.get(second) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            TraceStore(capacity=0)

    def test_summaries_filter_and_order(self):
        store = TraceStore()
        slow = new_trace_id()
        fast = new_trace_id()
        for trace_id, duration in ((slow, 2.0), (fast, 0.01)):
            store.add(
                SpanRecord(
                    trace_id=trace_id, span_id=new_span_id(), parent_id=None,
                    name="request", start=0.0, end=duration,
                )
            )
        summaries = store.summaries()
        assert [s["trace_id"] for s in summaries] == [fast, slow]  # recent first
        slow_only = store.summaries(min_duration=1.0)
        assert [s["trace_id"] for s in slow_only] == [slow]
        assert len(store.summaries(limit=1)) == 1

    def test_summary_duration_uses_root_span(self):
        store = TraceStore()
        trace_id = new_trace_id()
        root_id = new_span_id()
        store.add(  # child recorded first: recording order != tree order
            SpanRecord(
                trace_id=trace_id, span_id=new_span_id(), parent_id=root_id,
                name="evaluate", start=0.2, end=0.4,
            )
        )
        store.add(
            SpanRecord(
                trace_id=trace_id, span_id=root_id, parent_id=None,
                name="request", start=0.0, end=1.0,
            )
        )
        (summary,) = store.summaries()
        assert summary["name"] == "request"
        assert summary["duration_seconds"] == pytest.approx(1.0)
        assert summary["spans"] == 2


class TestJsonlAndRendering:
    def _sample_spans(self):
        trace_id = new_trace_id()
        root = SpanRecord(
            trace_id=trace_id, span_id=new_span_id(), parent_id=None,
            name="request", start=0.0, end=1.0, wall=1700000000.0,
            attrs={"route": "recommend"},
        )
        child = SpanRecord(
            trace_id=trace_id, span_id=new_span_id(), parent_id=root.span_id,
            name="evaluate", start=0.1, end=0.9,
        )
        return [root, child]

    def test_jsonl_round_trip(self):
        spans = self._sample_spans()
        assert spans_from_jsonl(spans_to_jsonl(spans)) == spans

    def test_jsonl_rejects_garbage(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            spans_from_jsonl("{broken\n")
        with pytest.raises(ValidationError, match="must be an object"):
            spans_from_jsonl("[1, 2]\n")
        with pytest.raises(ValidationError, match="malformed span record"):
            spans_from_jsonl('{"name": "orphan"}\n')

    def test_store_export_matches_snapshot(self):
        store = TraceStore()
        for span in self._sample_spans():
            store.add(span)
        assert spans_from_jsonl(store.export_jsonl()) == store.snapshot()

    def test_render_trace_tree_shape(self):
        spans = self._sample_spans()
        text = render_trace(spans)
        assert f"trace {spans[0].trace_id}" in text
        assert "(2 spans, 1.000s)" in text
        assert "`- request" in text
        assert "`- evaluate" in text
        assert "route=recommend" in text
        # Child is indented under the root.
        request_line = next(l for l in text.splitlines() if "request" in l)
        evaluate_line = next(l for l in text.splitlines() if "evaluate" in l)
        indent = lambda line: len(line) - len(line.lstrip(" |`-"))
        assert evaluate_line.index("`-") > request_line.index("`-")

    def test_render_orphan_parents_become_roots(self):
        spans = self._sample_spans()
        spans[0].parent_id = new_span_id()  # parent never recorded
        text = render_trace(spans)
        assert "`- request" in text  # still renders as the root

    def test_render_empty(self):
        assert render_trace([]) == "(no spans)"

    def test_summarize_traces_groups_by_trace(self):
        first = self._sample_spans()
        second = self._sample_spans()
        summaries = summarize_traces(first + second)
        assert len(summaries) == 2
        assert {s["trace_id"] for s in summaries} == {
            first[0].trace_id, second[0].trace_id,
        }


class TestJsonLogging:
    def _formatted(self, record):
        return json.loads(JsonLogFormatter().format(record))

    def test_extras_and_exceptions_serialize(self):
        logger = logging.Logger("obs-test")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger.addHandler(handler)
        try:
            raise ValueError("boom")
        except ValueError:
            logger.warning(
                "something %s", "happened", exc_info=True,
                extra={"trace_id": "abc123"},
            )
        payload = json.loads(stream.getvalue())
        assert payload["level"] == "WARNING"
        assert payload["message"] == "something happened"
        assert payload["trace_id"] == "abc123"
        assert payload["exc_type"] == "ValueError"
        assert payload["exc_message"] == "boom"
        assert isinstance(payload["ts"], float)

    def test_configure_is_idempotent(self):
        logger = configure_json_logging("repro.obs.test", stream=io.StringIO())
        again = configure_json_logging("repro.obs.test", stream=io.StringIO())
        assert logger is again
        assert len(logger.handlers) == 1
        assert not logger.propagate

    def test_log_slow_request_shape(self):
        stream = io.StringIO()
        logger = configure_json_logging("repro.obs.slow", stream=stream)
        log_slow_request(
            logger, route="recommend", status=200, seconds=1.23456789,
            threshold=1.0, trace_id="deadbeef",
        )
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "slow_request"
        assert payload["route"] == "recommend"
        assert payload["status"] == 200
        assert payload["seconds"] == pytest.approx(1.234568)
        assert payload["threshold"] == 1.0
        assert payload["trace_id"] == "deadbeef"


class TestProfileHook:
    def test_disabled_yields_none(self):
        with maybe_profile(False) as profiler:
            assert profiler is None

    def test_enabled_profiles_and_summarizes(self):
        with maybe_profile(True) as profiler:
            sum(range(1000))
        assert profiler is not None
        summary = profile_summary(profiler, limit=5)
        assert "cumulative" in summary
