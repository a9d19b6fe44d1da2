"""The asyncio wire transport: envelopes over a real socket.

A live server (module-scoped, ephemeral port) backs most tests; the
bit-identical end-to-end check builds its own twin brokers so the
server's answer can be compared against a direct in-process session
with identical telemetry and a cold cache.
"""

from __future__ import annotations

import gc
import http.client
import inspect
import json
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.broker.envelope import (
    ErrorEnvelope,
    RecommendEnvelope,
    ReportEnvelope,
)
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.errors import (
    InsufficientTelemetryError,
    UnknownNameError,
    ValidationError,
)
from repro.server import ServerClient, ServerError, start_in_thread
from repro.server.ingest import ExposureRecord
from repro.server.core import RequestCore
from repro.server.transport import BrokerServer, error_envelope_for
from repro.sla.contract import Contract
from repro.units import MINUTES_PER_YEAR

OBSERVE_YEARS = 1.0
SEED = 23

# The CI gateway leg runs this file with REPRO_WORKERS=2, which makes
# start_in_thread spawn a GatewayServer; tests that reach into the
# in-process server's internals only make sense at workers=0.
GATEWAY_WORKERS = int(os.environ.get("REPRO_WORKERS", "0") or "0")
inprocess_only = pytest.mark.skipif(
    GATEWAY_WORKERS > 0,
    reason="asserts in-process server internals",
)


#: Marks a request field the malformed-input cases remove.
_DELETE = object()


def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return broker


def request(sla: float = 98.0, penalty: float = 100.0, **kwargs):
    return three_tier_request(Contract.linear(sla, penalty), **kwargs)


def without_engine_stats(report) -> dict:
    """A report's JSON minus the per-request cache counters, which
    record whether this request found its engines warm."""
    payload = json.loads(report.to_json())
    for entry in payload["providers"]:
        del entry["engine_stats"]
    return payload


@pytest.fixture(scope="module")
def handle():
    with start_in_thread(observed_broker(), shards=4) as server_handle:
        yield server_handle


@pytest.fixture(scope="module")
def client(handle):
    return ServerClient(handle.host, handle.port)


class TestEndToEnd:
    def test_wire_report_bit_identical_to_direct_session(self):
        """Acceptance: socket round-trip == direct BrokerSession call."""
        envelope = RecommendEnvelope(request(), request_id="e2e-1")
        with observed_broker().session() as session:
            expected = session.recommend_envelope(envelope).to_json()
        with start_in_thread(observed_broker()) as twin:
            wire = ServerClient(twin.host, twin.port).recommend(envelope)
        assert wire.to_json() == expected

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_concurrent_wire_reports_equal_direct_session(self, max_workers):
        """Eight client threads on warm engines get the direct session's
        report, whatever the width of the session's worker pool."""
        envelope = RecommendEnvelope(request(), request_id="e2e-pool")
        with observed_broker().session() as session:
            cold = session.recommend_envelope(envelope)
        with start_in_thread(
            observed_broker(), max_workers=max_workers
        ) as twin:
            client = ServerClient(twin.host, twin.port)
            assert client.recommend(envelope).to_json() == cold.to_json()
            with ThreadPoolExecutor(max_workers=8) as pool:
                reports = list(
                    pool.map(lambda _: client.recommend(envelope), range(24))
                )
        want = without_engine_stats(cold)
        assert all(without_engine_stats(report) == want for report in reports)

    def test_recommend_round_trip(self, client):
        report = client.recommend(RecommendEnvelope(request(), request_id="r-1"))
        assert report.request_id == "r-1"
        assert report.best.provider_name in ("metalcloud", "cumulus", "stratus")
        assert report.best.best.meets_sla

    def test_repeated_requests_hit_the_engine_cache(self, client):
        client.recommend(request())
        before = client.metrics()[("repro_engine_cache_hits_total", ())]
        client.recommend(request())
        after = client.metrics()[("repro_engine_cache_hits_total", ())]
        assert after >= before + 3  # one hit per provider

    def test_repeated_requests_replay_from_the_memo(self, client):
        before = client.metrics()[("repro_engine_replays_total", ())]
        # Six repeats: even spread over two gateway workers, each worker
        # serves one request three times, and the third replays the memo.
        for _ in range(6):
            client.recommend(request())
        after = client.metrics()[("repro_engine_replays_total", ())]
        assert after >= before + 3  # one memo hit per provider

    def test_metrics_export_gc_collections(self, client):
        samples = client.metrics()
        for generation in ("0", "1", "2"):
            assert (
                "repro_gc_collections_total", (("generation", generation),)
            ) in samples

    def test_full_collection_shows_on_the_next_scrape(self):
        # In-process server: the test's gc.collect() runs in the
        # serving process itself.
        full = ("repro_gc_collections_total", (("generation", "2"),))
        with start_in_thread(observed_broker(), workers=0) as twin:
            local = ServerClient(twin.host, twin.port)
            before = local.metrics()[full]
            gc.collect()
            assert local.metrics()[full] >= before + 1

    def test_health_lists_providers(self, client):
        payload = client.health()
        assert payload["kind"] == "health"
        assert payload["status"] == "ok"
        assert "metalcloud" in payload["providers"]

    def test_query_strings_are_accepted_on_every_route(self, client):
        status, _ = client.request_raw("GET", "/metrics?debug=1")
        assert status == 200
        status, _ = client.request_raw("GET", "/healthz?probe=live")
        assert status == 200

    def test_client_reuses_keepalive_connections(self, client):
        client.health()
        first = getattr(client._local, "connection", None)
        client.health()
        assert first is not None
        assert getattr(client._local, "connection", None) is first


class TestErrorPaths:
    """Malformed input must yield structured error envelopes, never
    a traceback or a dropped connection."""

    def test_malformed_json_is_structured_400(self, client):
        status, body = client.request_raw("POST", "/v2/recommend", "{nope")
        assert status == 400
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "validation-error"
        assert "JSON" in envelope.message

    def test_unsupported_schema_version_is_structured_400(self, client):
        payload = RecommendEnvelope(request()).to_dict()
        payload["schema_version"] = 99
        status, body = client.request_raw(
            "POST", "/v2/recommend", json.dumps(payload)
        )
        assert status == 400
        envelope = ErrorEnvelope.from_json(body)
        assert "schema_version" in envelope.message

    @pytest.mark.parametrize("route", ["/v2/recommend", "/v2/jobs"])
    @pytest.mark.parametrize(
        "retired",
        [
            {"backend": "thread"},
            {"parallel": True},
            {"engine": "direct"},
            {"engine": "incremental"},
            {"backend": "process"},
            {"backend": "gpu"},
        ],
    )
    def test_retired_backend_fields_are_structured_400(
        self, handle, route, retired
    ):
        # The thread and process backends, the parallel alias and the
        # engine mode are gone from the wire; old clients get a validation error,
        # never a 500 or hang.
        payload = RecommendEnvelope(request()).to_dict()
        payload["request"].update(retired)
        wire = ServerClient(handle.host, handle.port, timeout=10.0)
        status, body = wire.request_raw("POST", route, json.dumps(payload))
        assert status == 400
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "validation-error"
        assert next(iter(retired)) in envelope.message

    @pytest.mark.parametrize("route", ["/v2/recommend", "/v2/jobs"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            pytest.param(("clusters", 0, "nodes"), "abc", "nodes", id="nodes-str"),
            pytest.param(("clusters", 0, "nodes"), None, "nodes", id="nodes-null"),
            pytest.param(("clusters", 0, "nodes"), 2.9, "nodes", id="nodes-float"),
            pytest.param(("clusters", 0, "nodes"), True, "nodes", id="nodes-bool"),
            pytest.param(("clusters", 0, "name"), _DELETE, "name", id="no-name"),
            pytest.param(("contract",), _DELETE, "contract", id="no-contract"),
            pytest.param(
                ("contract", "sla_percent"), "x", "contract", id="sla-str"
            ),
            pytest.param(("clusters",), 5, "clusters", id="clusters-int"),
            pytest.param(("providers",), 5, "providers", id="providers-int"),
            pytest.param(("metadata",), [1], "metadata", id="metadata-list"),
            pytest.param(
                ("extended_catalog",), "no", "extended_catalog",
                id="extended-str",
            ),
            pytest.param(
                ("contract", "penalty"),
                {
                    "kind": "service-credit",
                    "monthly_contract_value": 5000.0,
                    "schedule": [[0.0, 0.1], [10.0, 0.25]],
                },
                "schedule thresholds",
                id="credit-at-0h",
            ),
            pytest.param(
                ("contract", "penalty"),
                {
                    "kind": "service-credit",
                    "monthly_contract_value": 5000.0,
                    "schedule": [[-1.0, 0.1], [10.0, 0.25]],
                },
                "schedule thresholds",
                id="credit-at-negative",
            ),
        ],
    )
    def test_malformed_request_fields_are_structured_400(
        self, handle, route, path, value, field
    ):
        # Every malformed field is a 400 naming it: never a 500 with a
        # server-side traceback, never a silent coercion.
        payload = RecommendEnvelope(request()).to_dict()
        target = payload["request"]
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        wire = ServerClient(handle.host, handle.port, timeout=10.0)
        status, body = wire.request_raw("POST", route, json.dumps(payload))
        assert status == 400, body
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "validation-error"
        assert field in envelope.message

    @pytest.mark.parametrize("route", ["/v2/recommend", "/v2/jobs"])
    def test_unknown_envelope_key_is_structured_400(self, client, route):
        # The key sits beside "request", not inside it.
        payload = RecommendEnvelope(request()).to_dict()
        payload["unexpected_field"] = True
        status, body = client.request_raw("POST", route, json.dumps(payload))
        assert status == 400
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "validation-error"
        assert "unexpected_field" in envelope.message

    def test_non_object_envelope_is_structured_400(self, client):
        status, body = client.request_raw("POST", "/v2/recommend", "[]")
        assert status == 400
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "validation-error"
        assert "JSON object" in envelope.message

    def test_unknown_provider_is_structured_404(self, client):
        bad = RecommendEnvelope(
            request(providers=("nimbus-9",)), request_id="bad-provider"
        )
        status, body = client.request_raw("POST", "/v2/recommend", bad.to_json())
        assert status == 404
        envelope = ErrorEnvelope.from_json(body)
        assert envelope.error == "unknown-name"
        assert "nimbus-9" in envelope.message
        assert envelope.request_id == "bad-provider"

    def test_unknown_job_id_is_structured_404(self, client):
        status, body = client.request_raw("GET", "/v2/jobs/job-999999")
        assert status == 404
        assert ErrorEnvelope.from_json(body).error == "unknown-name"

    def test_unknown_route_is_structured_404(self, client):
        status, body = client.request_raw("GET", "/v1/recommend")
        assert status == 404
        assert ErrorEnvelope.from_json(body).error == "unknown-route"

    def test_wrong_method_is_structured_405(self, client):
        status, body = client.request_raw("GET", "/v2/recommend")
        assert status == 405
        assert ErrorEnvelope.from_json(body).error == "method-not-allowed"

    def test_oversized_body_is_structured_413(self):
        with start_in_thread(
            observed_broker(), max_body_bytes=1024
        ) as small:
            status, body = ServerClient(small.host, small.port).request_raw(
                "POST", "/v2/recommend", "x" * 4096
            )
        assert status == 413
        assert ErrorEnvelope.from_json(body).error == "request-too-large"

    def test_connection_survives_an_error_response(self, client):
        # Same TCP-level behaviour ServerClient relies on: an error
        # must not poison the next request on a fresh connection.
        status, _ = client.request_raw("POST", "/v2/recommend", "{nope")
        assert status == 400
        report = client.recommend(request())
        assert report.best.best.meets_sla

    def test_error_responses_never_carry_tracebacks(self, client):
        for method, path, body in [
            ("POST", "/v2/recommend", "{nope"),
            ("POST", "/v2/batch", "{nope"),
            ("POST", "/v2/jobs", "null"),
            ("GET", "/v2/jobs/job-999999/result", None),
            ("POST", "/v2/ingest", '{"kind": "exposure"}'),
        ]:
            status, text = client.request_raw(method, path, body)
            assert status >= 400, (method, path)
            assert "Traceback" not in text, (method, path)
            assert ErrorEnvelope.from_json(text).status == status

    def test_negative_content_length_is_structured_400(self, handle):
        with socket.create_connection(
            (handle.host, handle.port), timeout=10.0
        ) as raw:
            raw.sendall(
                b"POST /v2/recommend HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
            )
            data = raw.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"Content-Length" in data

    def test_garbage_head_answered_then_closed(self, handle):
        with socket.create_connection(
            (handle.host, handle.port), timeout=10.0
        ) as raw:
            raw.sendall(b"NOT-HTTP\r\n\r\n")
            data = raw.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b'"kind": "error"' in data or b'"kind":"error"' in data


class TestJobs:
    def test_submit_poll_result_lifecycle(self, client):
        job_id = client.submit(RecommendEnvelope(request(), request_id="j-1"))
        assert job_id.startswith("job-")
        assert client.poll(job_id) in ("pending", "running", "done")
        report = client.result(job_id)
        assert report.request_id == "j-1"
        assert client.poll(job_id) == "done"

    @inprocess_only
    def test_failed_job_result_is_error_envelope(self, client, handle):
        job_id = client.submit(request(providers=("nimbus-9",)))
        with pytest.raises(ServerError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 404
        assert excinfo.value.envelope.error == "unknown-name"
        # Serving the failure counts as retrieval, so failed jobs
        # participate in retention eviction instead of leaking.
        assert handle.server.session.job(job_id).retrieved

    def test_unknown_job_subpaths_are_404_not_405(self, client):
        status, body = client.request_raw("GET", "/v2/jobs/a/b")
        assert status == 404
        assert ErrorEnvelope.from_json(body).error == "unknown-route"
        status, body = client.request_raw("POST", "/v2/jobs/a")
        assert status == 405
        assert ErrorEnvelope.from_json(body).error == "method-not-allowed"


class TestBatch:
    def test_batch_streams_reports_in_order(self, client):
        requests = [request(98.0), request(99.0), request(98.0, 250.0)]
        results = client.batch(requests)
        assert [type(r) for r in results] == [ReportEnvelope] * 3
        sequential = [client.recommend(r) for r in requests]

        def essence(report: ReportEnvelope) -> list[dict]:
            # engine_stats legitimately vary with cache warmth; the
            # recommendation payload must not.
            payload = []
            for provider in report.providers:
                entry = provider.to_dict()
                entry.pop("engine_stats")
                payload.append(entry)
            return payload

        assert [essence(r) for r in results] == [
            essence(r) for r in sequential
        ]

    def test_batch_mixes_errors_per_line(self, client):
        results = client.batch(
            [request(), request(providers=("nimbus-9",)), request()]
        )
        assert isinstance(results[0], ReportEnvelope)
        assert isinstance(results[1], ErrorEnvelope)
        assert results[1].error == "unknown-name"
        assert isinstance(results[2], ReportEnvelope)

    def test_abandoned_batch_stream_marks_jobs_retrieved(self):
        """A disconnecting batch client must not exempt its jobs from
        retention — nothing else holds their ids."""
        import asyncio

        from repro.server.transport import _Request

        server = BrokerServer(observed_broker(), merge_interval=None)

        async def scenario() -> None:
            body = "\n".join(
                RecommendEnvelope(request(), request_id=f"b-{i}").to_json()
                for i in range(3)
            ).encode("utf-8")
            # start() never ran; only the dispatch machinery is needed.
            server._inflight = asyncio.Semaphore(4)
            _route, response = await server._dispatch(
                _Request("POST", "/v2/batch", {}, body)
            )
            stream = response.stream
            await stream.__anext__()  # client reads one line...
            await stream.aclose()  # ...then disconnects
            for job in server.session.jobs():
                assert job.retrieved, job.job_id
            await server.stop()

        asyncio.run(scenario())

    def test_batch_with_malformed_line_rejected_up_front(self, client):
        good = RecommendEnvelope(request()).to_json()
        status, body = client.request_raw(
            "POST", "/v2/batch", good + "\n{nope\n"
        )
        assert status == 400
        assert "line 2" in ErrorEnvelope.from_json(body).message

    def test_empty_batch_rejected(self, client):
        status, _ = client.request_raw("POST", "/v2/batch", "  \n ")
        assert status == 400


class TestIngest:
    @inprocess_only
    def test_wire_ingest_updates_estimates_after_flush(self):
        broker = BrokerService(all_providers())
        with start_in_thread(broker, shards=4, merge_interval=None) as fresh:
            wire = ServerClient(fresh.host, fresh.port)
            records = [
                ExposureRecord("metalcloud", "vm", 10, 5 * MINUTES_PER_YEAR)
            ]
            ack = wire.ingest(records)
            assert ack["routed"] == 1
            assert ack["shards"] == 4
            flush = wire.flush()
            assert flush["merged"] == 1
            assert broker.telemetry.exposure_years("metalcloud", "vm") == (
                pytest.approx(50.0)
            )

    def test_empty_ingest_rejected(self, client):
        status, _ = client.request_raw("POST", "/v2/ingest", "\n\n")
        assert status == 400


class TestErrorEnvelopeMapping:
    def test_exception_to_envelope_mapping(self):
        cases = [
            (UnknownNameError("unknown job 'x'"), 404, "unknown-name"),
            (InsufficientTelemetryError("no data"), 422, "insufficient-telemetry"),
            (ValidationError("bad"), 400, "validation-error"),
            (RuntimeError("boom"), 500, "internal-error"),
        ]
        for exc, status, slug in cases:
            envelope = error_envelope_for(exc, request_id="rid")
            assert envelope.status == status
            assert envelope.error == slug
            assert envelope.request_id == "rid"

    def test_internal_errors_hide_details(self):
        envelope = error_envelope_for(RuntimeError("secret state"))
        assert "secret state" not in envelope.message

    def test_error_envelope_round_trip(self):
        envelope = ErrorEnvelope(404, "unknown-name", "unknown job", "rid-1")
        assert ErrorEnvelope.from_json(envelope.to_json()) == envelope

    def test_error_envelope_validates_status(self):
        with pytest.raises(ValidationError, match="400..599"):
            ErrorEnvelope(200, "nope", "not an error")


class TestMetricsEndpoint:
    def test_prometheus_exposition_parses_and_covers_subsystems(self, client):
        client.recommend(request())  # ensure at least one request counted
        samples = client.metrics()
        assert ("repro_engine_cache_hits_total", ()) in samples
        assert ("repro_engine_cache_misses_total", ()) in samples
        assert ("repro_engine_cache_evictions_total", ()) in samples
        assert ("repro_engine_replays_total", ()) in samples
        for shard in range(4):
            key = ("repro_ingest_events_total", (("shard", str(shard)),))
            assert key in samples
        assert ("repro_jobs", (("status", "done"),)) in samples
        assert ("repro_job_queue_depth", ()) in samples
        recommend_count = samples[
            ("repro_http_requests_total", (("route", "recommend"), ("status", "200")))
        ]
        assert recommend_count >= 1
        bucket_inf = samples[
            (
                "repro_http_request_seconds_bucket",
                (("le", "+Inf"), ("route", "recommend")),
            )
        ]
        count = samples[
            ("repro_http_request_seconds_count", (("route", "recommend"),))
        ]
        assert bucket_inf == count >= 1

    def test_help_and_type_lines_present(self, client):
        text = client.metrics_text()
        assert "# HELP repro_engine_cache_hits_total" in text
        assert "# TYPE repro_http_request_seconds histogram" in text


class TestGracefulShutdown:
    def test_stop_with_idle_keepalive_connection_does_not_hang(self):
        import time

        handle = start_in_thread(observed_broker())
        wire = ServerClient(handle.host, handle.port)
        assert wire.health()["status"] == "ok"
        with socket.create_connection((handle.host, handle.port)):
            started = time.monotonic()
            handle.close()
            elapsed = time.monotonic() - started
        assert elapsed < handle.server.grace + 20.0

    def test_double_close_is_idempotent(self):
        handle = start_in_thread(observed_broker())
        handle.close()
        handle.close()


def _wire_body(strategy: str, backend: str | None, request_id: str) -> str:
    """A recommend envelope's JSON; ``backend=None`` drops the key."""
    payload = RecommendEnvelope(
        request(strategy=strategy), request_id=request_id
    ).to_dict()
    if backend is None:
        del payload["request"]["backend"]
    else:
        payload["request"]["backend"] = backend
    return json.dumps(payload)


def _serve_raw(wire, route: str, body: str) -> str:
    """One envelope's report bytes from ``/v2/recommend`` or ``/v2/batch``."""
    status, text = wire.request_raw("POST", route, body + "\n")
    assert status == 200, text
    return text.strip()


class TestBackendWireField:
    """The retired ``"backend"`` request key: ``"serial"``, ``"vector"``
    or no key at all are the same request; anything else is a 400."""

    @pytest.mark.parametrize("strategy", ["pruned", "brute-force"])
    @pytest.mark.parametrize("route", ["/v2/recommend", "/v2/batch"])
    def test_backend_values_give_identical_bytes(self, route, strategy):
        served = []
        for backend in (None, "serial", "vector"):
            # A fresh server each time: every serve is a first service.
            with start_in_thread(observed_broker()) as twin:
                wire = ServerClient(twin.host, twin.port, timeout=30.0)
                served.append(
                    _serve_raw(wire, route, _wire_body(strategy, backend, "b"))
                )
        assert served[0] == served[1] == served[2]
        assert ReportEnvelope.from_json(served[0]).request_id == "b"

    @inprocess_only
    @pytest.mark.parametrize(
        "strategy", ["pruned", "brute-force", "branch-and-bound"]
    )
    def test_memoized_report_answers_every_backend_value(self, strategy):
        with start_in_thread(observed_broker()) as twin:
            wire = ServerClient(twin.host, twin.port, timeout=30.0)
            for _ in range(2):  # first service, then a memoizing replay
                memoized = _serve_raw(
                    wire, "/v2/recommend", _wire_body(strategy, "serial", "m")
                )
            inline = ("repro_recommend_inline_total", ())
            replays = ("repro_engine_replays_total", ())
            before = wire.metrics()
            for backend in ("vector", None):
                assert _serve_raw(
                    wire, "/v2/recommend", _wire_body(strategy, backend, "m")
                ) == memoized
            after = wire.metrics()
        assert after[inline] == before[inline] + 2
        assert after[replays] == before[replays] + 6  # 3 providers x 2


class TestStartupConfiguration:
    @pytest.mark.parametrize("factory", [BrokerServer, RequestCore])
    def test_server_takes_no_backend_option(self, factory):
        # There is one evaluation path, so nothing to configure.
        parameters = inspect.signature(factory).parameters
        assert not [name for name in parameters if "backend" in name]

    def test_env_change_after_start_leaves_requests_served(
        self, monkeypatch
    ):
        # Nothing reads REPRO_BACKEND any more, so no value of it can
        # fail a request.
        with start_in_thread(observed_broker()) as twin:
            monkeypatch.setenv("REPRO_BACKEND", "bogus")
            report = ServerClient(twin.host, twin.port).recommend(request())
        assert report.best.best.meets_sla


class _ProcessThenDropServer:
    """A raw-socket server that processes every request but answers only
    the first per connection — the second is read fully (and counted as
    processed) before the connection is dropped without a response.

    This is exactly the dangerous stale-keep-alive shape: the server has
    already acted on the request when the client's ``getresponse()``
    fails, so an automatic client retry would run the request twice.
    """

    def __init__(self) -> None:
        self.processed: list[str] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def __enter__(self) -> "_ProcessThenDropServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._closing = True
        self._thread.join(timeout=5.0)
        self._sock.close()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        served = 0
        with conn:
            while True:
                request = self._read_request(conn)
                if request is None:
                    return
                self.processed.append(request)
                served += 1
                if served >= 2:
                    return  # process, then drop: no response bytes
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )

    def _read_request(self, conn: socket.socket) -> str | None:
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            try:
                data = conn.recv(65536)
            except OSError:
                return None
            if not data:
                return None
            buffer += data
        head, _, body = buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        method, path = lines[0].split()[:2]
        length = 0
        for line in lines[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            data = conn.recv(65536)
            if not data:
                return None
            body += data
        return f"{method.decode()} {path.decode()}"


class TestClientRetrySemantics:
    """The stale keep-alive retry must never replay non-idempotent work."""

    def test_post_is_not_retried_after_response_phase_failure(self):
        with _ProcessThenDropServer() as server:
            wire = ServerClient(server.host, server.port, timeout=5.0)
            status, _ = wire.request_raw("POST", "/v2/jobs", '{"n": 1}')
            assert status == 200
            # Second POST reuses the keep-alive connection; the server
            # processes it and drops the link.  The client must surface
            # the failure instead of silently submitting a duplicate.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                wire.request_raw("POST", "/v2/jobs", '{"n": 2}')
            assert server.processed == ["POST /v2/jobs", "POST /v2/jobs"]

    def test_get_is_retried_on_a_fresh_connection(self):
        with _ProcessThenDropServer() as server:
            wire = ServerClient(server.host, server.port, timeout=5.0)
            status, _ = wire.request_raw("GET", "/healthz")
            assert status == 200
            # Same drop, but GET is idempotent: one transparent replay
            # on a fresh connection (the server answers request #1 of
            # every connection), so the caller sees a clean 200.
            status, _ = wire.request_raw("GET", "/healthz")
            assert status == 200
            assert server.processed == [
                "GET /healthz",
                "GET /healthz",  # processed, response lost
                "GET /healthz",  # transparent replay
            ]
