"""End-to-end request tracing through the serving stack.

The propagation acceptance tests for ``repro.obs``: a traced request
issued through :class:`ServerClient` must yield exactly one trace whose
span tree covers transport -> session -> engine cache -> search, with
monotonic nested timings —
retrievable via both ``GET /v2/traces/{id}`` and ``repro trace``.  Also
pins the envelope's ``trace`` wire field, the disabled-tracing surface
(404 + no header + byte-identity) and the slow-request log.
"""

from __future__ import annotations

import json
import logging
import math

import pytest

from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cli.main import main
from repro.cloud.providers import all_providers
from repro.errors import ValidationError
from repro.obs.trace import (
    SpanContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.server import ServerClient, ServerError, start_in_thread
from repro.server.transport import BrokerServer
from repro.sla.contract import Contract

OBSERVE_YEARS = 1.0
SEED = 23


def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return broker


def request(**kwargs):
    return three_tier_request(Contract.linear(98.0, 100.0), **kwargs)


@pytest.fixture(scope="module")
def traced_handle():
    with start_in_thread(observed_broker(), trace=True) as handle:
        yield handle


@pytest.fixture()
def traced_client(traced_handle):
    return ServerClient(traced_handle.host, traced_handle.port, trace=True)


def spans_by_name(spans):
    table = {}
    for span in spans:
        table.setdefault(span.name, []).append(span)
    return table


class TestEnvelopeTraceField:
    def test_trace_field_round_trips(self):
        traceparent = format_traceparent(
            SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        )
        envelope = RecommendEnvelope(
            request(), request_id="t-1", trace=traceparent
        )
        decoded = RecommendEnvelope.from_json(envelope.to_json())
        assert decoded.trace == traceparent
        assert decoded.request_id == "t-1"

    def test_trace_defaults_to_none_and_emits_on_wire(self):
        envelope = RecommendEnvelope(request())
        assert envelope.trace is None
        assert json.loads(envelope.to_json())["trace"] is None

    def test_unknown_keys_still_rejected(self):
        payload = json.loads(RecommendEnvelope(request()).to_json())
        payload["tracing"] = "typo"
        with pytest.raises(ValidationError, match="tracing"):
            RecommendEnvelope.from_dict(payload)

    def test_non_string_trace_rejected(self):
        with pytest.raises(ValidationError):
            RecommendEnvelope(request(), trace=123)


class TestTracedRecommendPipeline:
    def test_client_to_worker_span_continuity(self):
        """Acceptance: one trace spanning transport->session->search."""
        with start_in_thread(
            observed_broker(), trace=True, max_workers=2
        ) as handle:
            client = ServerClient(handle.host, handle.port, trace=True)
            client.recommend(request(strategy="brute-force"))
            trace_id = client.last_trace_id
            assert trace_id is not None
            spans = client.trace_spans(trace_id)

        assert {s.trace_id for s in spans} == {trace_id}
        named = spans_by_name(spans)
        for phase in (
            "request", "parse", "key", "cache_lookup", "terms", "evaluate",
        ):
            assert phase in named, f"missing {phase} spans: {sorted(named)}"

        # The tree is fully connected: every non-root parent is recorded.
        recorded = {s.span_id for s in spans}
        (root,) = named["request"]
        for span in spans:
            if span is root:
                continue
            assert span.parent_id in recorded

        # Nested timings are monotone: children within their parents.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            assert parent.start <= span.start <= span.end <= parent.end

    def test_client_stamped_traceparent_becomes_the_trace_id(
        self, traced_client
    ):
        traced_client.recommend(request())
        envelope_ctx = None  # stamped inside _as_envelope; recover from id
        trace_id = traced_client.last_trace_id
        spans = traced_client.trace_spans(trace_id)
        (root,) = [s for s in spans if s.name == "request"]
        # The root is parented to the client's stamped span id (which
        # was never recorded server-side), proving propagation.
        assert root.parent_id is not None

    def test_warm_request_has_one_key_span_per_provider(self, traced_client):
        # A contract no other test sends: the second serve is the first
        # warm lookup, which derives keys (a memoized serve skips them).
        fresh = three_tier_request(Contract.linear(97.25, 100.0))
        traced_client.recommend(fresh)
        traced_client.recommend(fresh)
        spans = spans_by_name(
            traced_client.trace_spans(traced_client.last_trace_id)
        )
        (root,) = spans["request"]
        providers = sorted(provider.name for provider in all_providers())
        assert len(providers) == 3
        keys = {span.attrs["provider"]: span for span in spans["key"]}
        assert len(spans["key"]) == len(keys)
        assert sorted(keys) == providers
        lookups = {
            span.attrs["provider"]: span for span in spans["cache_lookup"]
        }
        for provider, key in keys.items():
            assert key.parent_id == root.span_id
            assert key.end <= lookups[provider].start

    def test_recommend_trace_records_parse_and_serialize(self, traced_client):
        traced_client.recommend(request())
        names = set(
            spans_by_name(
                traced_client.trace_spans(traced_client.last_trace_id)
            )
        )
        assert {"request", "parse", "serialize"} <= names

    def test_trace_listed_in_summaries(self, traced_client):
        traced_client.recommend(request())
        trace_id = traced_client.last_trace_id
        listing = traced_client.traces(limit=500)
        assert trace_id in {t["trace_id"] for t in listing["traces"]}
        assert listing["dropped"] >= 0

    def test_min_duration_filters(self, traced_client):
        traced_client.recommend(request())
        listing = traced_client.traces(min_duration=3600.0)
        assert listing["traces"] == []

    def test_unknown_trace_id_404(self, traced_client):
        with pytest.raises(ServerError) as excinfo:
            traced_client.trace_spans("f" * 32)
        assert excinfo.value.status == 404

    def test_job_submission_parents_job_span(self, traced_client):
        job_id = traced_client.submit(request())
        trace_id = traced_client.last_trace_id
        traced_client.result(job_id)
        spans = spans_by_name(traced_client.trace_spans(trace_id))
        (root,) = spans["request"]
        assert root.attrs["route"] == "jobs"
        (job,) = spans["job"]
        assert job.parent_id == root.span_id
        assert job.attrs["status"] == "done"
        # Under a gateway the ingress hop records its own queue_wait
        # spans parented to the request root; the job's is the one
        # parented to the job span.
        (queue_wait,) = [
            s for s in spans["queue_wait"] if s.parent_id == job.span_id
        ]
        assert queue_wait.end >= queue_wait.start

    def test_traced_error_still_answers_envelope(self, traced_client):
        bad = request()
        envelope = RecommendEnvelope(bad, request_id="boom-1")
        payload = json.loads(envelope.to_json())
        payload["request"]["providers"] = ["no-such-cloud"]
        status, text = traced_client.request_raw(
            "POST", "/v2/recommend", json.dumps(payload)
        )
        assert status == 404
        decoded = json.loads(text)
        assert decoded["error"] == "unknown-name"
        assert decoded["request_id"] == "boom-1"

    def test_metrics_exports_span_histogram(self, traced_client):
        traced_client.recommend(request())
        samples = traced_client.metrics()
        assert (
            samples[
                ("repro_span_duration_seconds_count", (("phase", "request"),))
            ]
            >= 1
        )


class TestDisabledTracing:
    def test_no_header_and_traces_404(self):
        with start_in_thread(observed_broker()) as handle:
            client = ServerClient(handle.host, handle.port)
            client.recommend(request())
            assert client.last_trace_id is None
            with pytest.raises(ServerError) as excinfo:
                client.traces()
            assert excinfo.value.status == 404
            assert excinfo.value.envelope.error == "tracing-disabled"

    def test_stamped_envelope_ignored_by_untraced_server(self):
        with start_in_thread(observed_broker()) as handle:
            client = ServerClient(handle.host, handle.port, trace=True)
            report = client.recommend(request())
            assert client.last_trace_id is None  # no header came back
            assert report.best.best.meets_sla

    def test_traced_and_untraced_reports_byte_identical(self):
        envelope = RecommendEnvelope(request(), request_id="bit-1")
        with start_in_thread(observed_broker()) as plain:
            expected = (
                ServerClient(plain.host, plain.port)
                .recommend(envelope)
                .to_json()
            )
        with start_in_thread(observed_broker(), trace=True) as traced:
            actual = (
                ServerClient(traced.host, traced.port, trace=True)
                .recommend(envelope)
                .to_json()
            )
        assert actual == expected

    def test_slow_request_threshold_requires_trace(self):
        with pytest.raises(ValidationError, match="requires trace"):
            BrokerServer(observed_broker(), slow_request_threshold=1.0)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
    def test_slow_request_threshold_must_be_finite(self, threshold):
        # A NaN threshold would never log a request as slow.
        with pytest.raises(ValidationError, match="slow_request_threshold"):
            BrokerServer(
                BrokerService(all_providers()),
                trace=True,
                slow_request_threshold=threshold,
            )


class TestSlowRequestLog:
    def test_slow_requests_logged_with_trace_id(self, caplog):
        with start_in_thread(
            observed_broker(), trace=True, slow_request_threshold=0.0
        ) as handle:
            client = ServerClient(handle.host, handle.port, trace=True)
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                client.recommend(request())
                trace_id = client.last_trace_id
        records = [
            r for r in caplog.records
            if getattr(r, "event", None) == "slow_request"
        ]
        assert records, "no slow-request log emitted"
        record = records[-1]
        assert record.route == "recommend"
        assert record.status == 200
        assert record.trace_id == trace_id
        assert record.seconds >= 0.0


class TestTraceCli:
    def test_cli_lists_and_renders_live_traces(
        self, traced_handle, traced_client, capsys
    ):
        # A contract no other test sends, so the request searches (a
        # memoized one would record a replay span, not evaluate).
        traced_client.recommend(three_tier_request(Contract.linear(96.5, 80.0)))
        trace_id = traced_client.last_trace_id
        url = f"http://{traced_handle.host}:{traced_handle.port}"

        assert main(["trace", "--url", url, "--limit", "500"]) == 0
        listing = capsys.readouterr().out
        assert trace_id in listing

        assert main(["trace", "--url", url, trace_id]) == 0
        tree = capsys.readouterr().out
        assert f"trace {trace_id}" in tree
        assert "request" in tree and "evaluate" in tree

    def test_cli_reads_exported_jsonl(
        self, traced_client, tmp_path, capsys
    ):
        traced_client.recommend(request())
        trace_id = traced_client.last_trace_id
        spans = traced_client.trace_spans(trace_id)
        export = tmp_path / "spans.jsonl"
        export.write_text(
            "".join(json.dumps(s.to_dict()) + "\n" for s in spans)
        )

        assert main(["trace", "--file", str(export)]) == 0
        assert trace_id in capsys.readouterr().out

        assert main(["trace", "--file", str(export), trace_id]) == 0
        assert f"trace {trace_id}" in capsys.readouterr().out

    def test_cli_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["trace"]) == 1
        assert "exactly one source" in capsys.readouterr().err
        export = tmp_path / "spans.jsonl"
        export.write_text("")
        assert main(
            ["trace", "--url", "http://127.0.0.1:1", "--file", str(export)]
        ) == 1
