"""The serving core: route resolution and v2 envelope handlers.

PR 10 split the monolithic ``transport.py`` into two layers so the same
request-handling machinery can run behind *any* frontend:

- this module — the wire-format primitives (:class:`_Request`,
  :class:`_Response`, :func:`error_envelope_for`), the pure route
  resolver (:func:`resolve_route`) and :class:`RequestCore`, which owns
  a :class:`~repro.broker.api.BrokerSession`, a
  :class:`~repro.server.ingest.ShardedIngestor` and the route handlers;
- :mod:`repro.server.transport` — the asyncio socket frontend
  (:class:`~repro.server.transport.HttpEdge`) plus the in-process
  :class:`~repro.server.transport.BrokerServer` composing both.

A :class:`RequestCore` is frontend-agnostic on purpose: the in-process
server routes HTTP requests straight into it, while
:mod:`repro.server.worker` runs one per worker process and feeds it
requests received over the gateway's dispatch protocol.  Requests that
crossed a process boundary carry an ``ingress`` timestamp pair; traced
handlers turn it into ``queue_wait``/``dispatch`` spans under the
request root, so per-phase latency attribution survives the hop.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Mapping
from urllib.parse import parse_qs

from repro.broker.api import BrokerSession, EngineCache
from repro.broker.envelope import (
    ENVELOPE_SCHEMA_VERSION,
    ErrorEnvelope,
    RecommendEnvelope,
)
from repro.broker.service import BrokerService
from repro.errors import (
    BrokerError,
    InsufficientTelemetryError,
    ReproError,
    UnknownNameError,
    ValidationError,
)
from repro.obs import clock
from repro.obs.trace import SpanContext, Tracer, TraceStore, parse_traceparent
from repro.server.ingest import ShardedIngestor
from repro.server.metrics import ServerMetrics

logger = logging.getLogger("repro.server")

#: Reason phrases for the statuses this server emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Response header carrying the request's trace id when tracing is on.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Every (method, route-pattern) pair this server serves — the single
#: source of truth tests assert client retry policy against: a method
#: appears in :data:`~repro.server.client.ServerClient.IDEMPOTENT_METHODS`
#: only if every route serving it really is idempotent.
SERVED_ROUTES: tuple[tuple[str, str], ...] = (
    ("POST", "/v2/recommend"),
    ("POST", "/v2/batch"),
    ("POST", "/v2/jobs"),
    ("GET", "/v2/jobs/{id}"),
    ("GET", "/v2/jobs/{id}/result"),
    ("POST", "/v2/ingest"),
    ("POST", "/v2/ingest/flush"),
    ("GET", "/v2/traces"),
    ("GET", "/v2/traces/{id}"),
    ("GET", "/metrics"),
    ("GET", "/healthz"),
)

#: Routes accepting an explicit ``Idempotency-Key`` (header or envelope
#: field); ``job-result`` additionally replays implicitly, keyed by path.
KEYED_ROUTES = frozenset({"recommend", "jobs", "ingest"})


def error_envelope_for(
    exc: BaseException, request_id: str | None = None
) -> ErrorEnvelope:
    """Map an exception to its wire form (status + stable error slug)."""
    if isinstance(exc, UnknownNameError):
        return ErrorEnvelope(404, "unknown-name", str(exc), request_id)
    if isinstance(exc, InsufficientTelemetryError):
        return ErrorEnvelope(422, "insufficient-telemetry", str(exc), request_id)
    if isinstance(exc, ValidationError):
        return ErrorEnvelope(400, "validation-error", str(exc), request_id)
    if isinstance(exc, BrokerError):
        return ErrorEnvelope(400, "broker-error", str(exc), request_id)
    if isinstance(exc, ReproError):
        return ErrorEnvelope(400, "error", str(exc), request_id)
    # Unexpected failure: log the traceback server-side, never wire it.
    logger.exception("internal error serving request", exc_info=exc)
    return ErrorEnvelope(
        500, "internal-error",
        f"internal server error ({type(exc).__name__})", request_id,
    )


class _HttpError(Exception):
    """Internal: short-circuit a request with a ready error envelope."""

    def __init__(self, envelope: ErrorEnvelope) -> None:
        super().__init__(envelope.message)
        self.envelope = envelope


@dataclass
class _Request:
    """One parsed HTTP request.

    ``ingress`` is set only on requests that crossed the gateway →
    worker process boundary: ``(enqueued, received)`` perf-counter
    timestamps *in the receiving process's clock* (the dispatch
    handshake estimates the cross-process offset — see
    :mod:`repro.server.dispatch`).  Traced handlers back-date the
    request root to ``enqueued`` and record ``queue_wait``/``dispatch``
    child spans from the pair.
    """

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    peer: str = ""
    ingress: tuple[float, float] | None = None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class _Response:
    """One response: either a complete body or an async chunk stream.

    ``replayable`` lets a handler override the idempotency store's
    default commit policy (2xx on keyed routes): ``True`` forces a
    response to be recorded (e.g. a job's *terminal* error — that error
    IS the result and must replay), ``False`` forbids it, ``None``
    defers to the policy.
    """

    status: int
    body: bytes = b""
    content_type: str = _JSON
    stream: AsyncIterator[bytes] | None = None
    headers: dict[str, str] = field(default_factory=dict)
    replayable: bool | None = None


def _json_response(status: int, payload: Mapping[str, Any] | str) -> _Response:
    if isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _Response(status=status, body=body)


def _error_response(envelope: ErrorEnvelope) -> _Response:
    return _json_response(envelope.status, envelope.to_json())


# -- route resolution --------------------------------------------------------

#: Exact-match (method, path) -> route name; parameterised routes
#: (jobs, traces) are resolved by prefix in :func:`resolve_route`.
_ROUTE_TABLE: dict[tuple[str, str], str] = {
    ("POST", "/v2/recommend"): "recommend",
    ("POST", "/v2/batch"): "batch",
    ("POST", "/v2/jobs"): "jobs",
    ("POST", "/v2/ingest"): "ingest",
    ("POST", "/v2/ingest/flush"): "ingest-flush",
    ("GET", "/v2/traces"): "traces",
    ("GET", "/metrics"): "metrics",
    ("GET", "/healthz"): "healthz",
}

_KNOWN_PATHS = sorted(
    {path for _, path in _ROUTE_TABLE}
    | {"/v2/jobs/{id}", "/v2/jobs/{id}/result", "/v2/traces/{id}"}
)


def _method_not_allowed_envelope(method: str, raw_path: str) -> ErrorEnvelope:
    return ErrorEnvelope(
        405, "method-not-allowed",
        f"{method} is not supported on {raw_path}",
    )


def _unknown_route_envelope(raw_path: str) -> ErrorEnvelope:
    return ErrorEnvelope(
        404, "unknown-route",
        f"no route for {raw_path!r}; available: {_KNOWN_PATHS}",
    )


def resolve_route(
    method: str, raw_path: str
) -> tuple[str, str | None, ErrorEnvelope | None]:
    """Classify a request: ``(route, path parameter, error envelope)``.

    Pure — no handlers involved — so the gateway can route a request to
    its worker partition (and answer 404/405 locally, byte-identical to
    the in-process server) without constructing a serving core.  Routes
    on the path component only; query strings are accepted (and
    ignored) on every endpoint, per standard request-target handling.
    """
    path = raw_path.split("?", 1)[0].rstrip("/") or "/"
    if (method, path) in _ROUTE_TABLE:
        return _ROUTE_TABLE[(method, path)], None, None
    if path.startswith("/v2/traces/"):
        trace_id = path[len("/v2/traces/"):]
        if "/" not in trace_id:
            if method == "GET":
                return "trace", trace_id, None
            return (
                "unmatched", None,
                _method_not_allowed_envelope(method, raw_path),
            )
        return "unmatched", None, _unknown_route_envelope(raw_path)
    if path.startswith("/v2/jobs/"):
        tail = path[len("/v2/jobs/"):]
        if tail.endswith("/result"):
            job_id = tail[: -len("/result")]
            if "/" not in job_id:
                if method == "GET":
                    return "job-result", job_id, None
                return (
                    "unmatched", None,
                    _method_not_allowed_envelope(method, raw_path),
                )
        elif "/" not in tail:
            if method == "GET":
                return "job", tail, None
            return (
                "unmatched", None,
                _method_not_allowed_envelope(method, raw_path),
            )
        # Deeper job subpaths are unknown routes, not method errors.
        return "unmatched", None, _unknown_route_envelope(raw_path)
    if any(path == known for _, known in _ROUTE_TABLE):
        return "unmatched", None, _method_not_allowed_envelope(method, raw_path)
    return "unmatched", None, _unknown_route_envelope(raw_path)


def _error_handler(envelope: ErrorEnvelope):
    async def handler(request: _Request) -> _Response:
        raise _HttpError(envelope)

    return handler


class RequestCore:
    """The frontend-agnostic serving core over one broker.

    Owns a :class:`~repro.broker.api.BrokerSession` (the cross-request
    engine cache and job table), a
    :class:`~repro.server.ingest.ShardedIngestor` over the broker's
    serving telemetry store, and a :class:`ServerMetrics` registry.
    :meth:`route` resolves a request to ``(route name, async handler)``;
    frontends own everything around that call — sockets, hardening,
    request accounting.

    ``job_id_start``/``job_id_stride`` thread through to the session so
    partitioned worker processes mint job ids from disjoint arithmetic
    progressions; ``metrics_edge=False`` keeps the HTTP/hardening
    metric families off a worker's exposition (the gateway exports
    those exactly once, at the edge).
    """

    def __init__(
        self,
        broker: BrokerService,
        *,
        shards: int = 4,
        merge_interval: float | None = 0.5,
        max_workers: int = 4,
        cache_capacity: int = 16,
        finished_job_ttl: float | None = None,
        trace: bool = False,
        trace_capacity: int = 256,
        job_id_start: int = 1,
        job_id_stride: int = 1,
        metrics_edge: bool = True,
        idempotency_store=None,
        rate_limiter=None,
    ) -> None:
        self.broker = broker
        if trace:
            self.trace_store: TraceStore | None = TraceStore(
                capacity=trace_capacity
            )
            self.tracer: Tracer | None = Tracer(self.trace_store)
        else:
            self.trace_store = None
            self.tracer = None
        self.session = broker.session(
            cache_capacity=cache_capacity,
            max_workers=max_workers,
            finished_job_ttl=finished_job_ttl,
            tracer=self.tracer,
            job_id_start=job_id_start,
            job_id_stride=job_id_stride,
        )
        self.ingestor = ShardedIngestor(
            broker.telemetry,
            num_shards=shards,
            merge_interval=merge_interval,
        )
        self.metrics = ServerMetrics(
            self.session,
            self.ingestor,
            tracer=self.tracer,
            idempotency_store=idempotency_store,
            rate_limiter=rate_limiter,
            edge=metrics_edge,
        )

    @staticmethod
    def check_settings(
        *,
        shards: int = 4,
        merge_interval: float | None = 0.5,
        max_workers: int = 4,
        cache_capacity: int = 16,
        finished_job_ttl: float | None = None,
        trace: bool = False,
        trace_capacity: int = 256,
    ) -> None:
        """Raise what constructing a core with these settings would.

        Builds nothing: the gateway calls this before it spawns the
        workers that will each build a core from the same settings.
        """
        if trace:
            TraceStore.check_capacity(trace_capacity)
        BrokerSession.check_settings(
            max_workers=max_workers, finished_job_ttl=finished_job_ttl
        )
        EngineCache.check_capacity(cache_capacity)
        ShardedIngestor.check_settings(shards, merge_interval=merge_interval)

    def close(self) -> None:
        """Tear down the session and the ingestion pipeline (blocking)."""
        self.session.close()
        self.ingestor.close()

    # -- routing -----------------------------------------------------------

    def route(self, request: _Request):
        """Resolve one request to ``(route name, bound async handler)``."""
        route, param, envelope = resolve_route(request.method, request.path)
        if envelope is not None:
            return route, _error_handler(envelope)
        handlers = {
            "recommend": self._post_recommend,
            "batch": self._post_batch,
            "jobs": self._post_jobs,
            "ingest": self._post_ingest,
            "ingest-flush": self._post_flush,
            "traces": self._get_traces,
            "metrics": self._get_metrics,
            "healthz": self._get_health,
        }
        if route in handlers:
            return route, handlers[route]
        if route == "trace":
            return route, self._trace_handler(param)
        if route == "job":
            return route, self._job_poll_handler(param)
        assert route == "job-result", route
        return route, self._job_result_handler(param)

    # -- handlers ----------------------------------------------------------

    def _parse_envelope(self, body: bytes) -> RecommendEnvelope:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"request body is not UTF-8: {exc}") from exc
        return RecommendEnvelope.from_json(text)

    async def _post_recommend(self, request: _Request) -> _Response:
        """Parse on the loop, then answer a warm hit right there.

        :meth:`BrokerSession.replay_envelope` never blocks and does no
        search, so a request every provider has a memo for is answered
        on the event loop, without the two thread wake-ups of an
        executor round trip.  Anything else goes to the executor, with
        the warm keys the failed replay derived.
        """
        if self.tracer is not None:
            return await self._traced_recommend(request)
        envelope = self._parse_envelope(request.body)
        try:
            report, warm_keys = self._replay_inline(envelope)
            if report is None:
                report = await asyncio.get_running_loop().run_in_executor(
                    None, self.session.recommend_envelope, envelope, warm_keys
                )
        except ReproError as exc:
            raise _HttpError(error_envelope_for(exc, envelope.request_id))
        return _json_response(200, report.to_json())

    def _replay_inline(self, envelope: RecommendEnvelope):
        """The session's memoized report (counted when answered inline)
        and the warm keys its replay derived."""
        report, warm_keys = self.session.replay(envelope)
        if report is not None:
            self.metrics.recommend_inline.inc()
        return report, warm_keys

    @staticmethod
    def _envelope_trace_parent(envelope: RecommendEnvelope) -> SpanContext | None:
        """The client's traceparent, if present and well-formed."""
        if envelope.trace is None:
            return None
        try:
            return parse_traceparent(envelope.trace)
        except ValidationError:
            return None  # garbage traceparent: start a fresh trace

    def _record_ingress(self, tracer, span, request, parse_started: float) -> None:
        """Attribute the gateway → worker hop under the request root.

        ``queue_wait`` covers gateway enqueue → worker frame receipt,
        ``dispatch`` covers receipt → handler start.  Timestamps are
        clamped monotone so the clock-offset estimate can never produce
        an inverted span tree.
        """
        assert request.ingress is not None
        enqueued, received = request.ingress
        received = min(received, parse_started)
        enqueued = min(enqueued, received)
        tracer.record(
            "queue_wait", parent=span.context, start=enqueued, end=received
        )
        tracer.record(
            "dispatch", parent=span.context, start=received, end=parse_started
        )

    async def _traced_recommend(self, request: _Request) -> _Response:
        """The traced recommend path: the same hops, recorded as spans.

        The request's root span is back-dated to when parsing started —
        or to gateway enqueue, when the request crossed the process
        boundary — so the whole pipeline nests under one trace.

        A warm hit is timed with bare clock reads and its spans are
        recorded once the payload is ready: ``parse``, ``replay`` and
        ``serialize`` tile the root, and the tracer's own bookkeeping
        stays outside the phases it measures.  A miss opens the root
        live and runs the session on the executor under the root's
        context (so the session does not open a root of its own), where
        key, cache and search spans nest as usual.
        """
        tracer = self.tracer
        assert tracer is not None
        parse_started = clock.perf_counter()
        envelope = self._parse_envelope(request.body)
        parent = self._envelope_trace_parent(envelope)
        parse_ended = clock.perf_counter()
        root_start = (
            min(request.ingress[0], parse_started)
            if request.ingress is not None
            else parse_started
        )
        attrs = {"route": "recommend", "request_id": envelope.request_id or ""}
        report, warm_keys = self._replay_inline(envelope)
        if report is not None:
            replayed = clock.perf_counter()
            payload = report.to_json()
            ended = clock.perf_counter()
            attrs["status"] = "done"
            root = tracer.record(
                "request", parent=parent, start=root_start, end=ended, attrs=attrs
            )
            self._record_parse(tracer, root, request, parse_started, parse_ended)
            tracer.record(
                "replay",
                parent=root.context,
                start=parse_ended,
                end=replayed,
                attrs={"providers": str(len(report.providers))},
            )
            tracer.record(
                "serialize", parent=root.context, start=replayed, end=ended
            )
            return self._traced_response(payload, root.trace_id)
        with tracer.span(
            "request", parent=parent, start=root_start, attrs=attrs
        ) as span:
            self._record_parse(tracer, span, request, parse_started, parse_ended)
            try:
                report = await asyncio.get_running_loop().run_in_executor(
                    None, self._traced_session, span.context, envelope, warm_keys
                )
            except ReproError as exc:
                span.attrs["status"] = "error"
                raise _HttpError(
                    error_envelope_for(exc, envelope.request_id)
                ) from exc
            with tracer.span("serialize"):
                payload = report.to_json()
            span.attrs["status"] = "done"
        return self._traced_response(payload, span.trace_id)

    @staticmethod
    def _traced_response(payload: str, trace_id: str) -> _Response:
        response = _json_response(200, payload)
        response.headers[TRACE_HEADER] = trace_id
        return response

    def _record_parse(
        self, tracer, root, request: _Request, started: float, ended: float
    ) -> None:
        """Record ``parse`` (and a crossed-over request's ingress hops)."""
        if request.ingress is not None:
            self._record_ingress(tracer, root, request, started)
        tracer.record("parse", parent=root.context, start=started, end=ended)

    def _traced_session(
        self, context: SpanContext, envelope: RecommendEnvelope, warm_keys
    ):
        """The session half of a traced miss; runs on the executor.

        Executor threads are reused and do not inherit the loop's
        context, so the root's context is activated here and always
        restored.
        """
        tracer = self.tracer
        assert tracer is not None
        token = tracer.activate(context)
        try:
            return self.session.recommend_envelope(envelope, warm_keys)
        finally:
            tracer.restore(token)

    async def _post_batch(self, request: _Request) -> _Response:
        lines = [
            line
            for line in request.body.decode("utf-8", errors="replace").splitlines()
            if line.strip()
        ]
        if not lines:
            raise ValidationError("batch body contains no request envelopes")
        envelopes = []
        for number, line in enumerate(lines, start=1):
            try:
                envelopes.append(RecommendEnvelope.from_json(line))
            except ValidationError as exc:
                raise ValidationError(f"batch line {number}: {exc}") from exc
        job_ids = [
            self.session.submit(envelope, wire=True) for envelope in envelopes
        ]
        loop = asyncio.get_running_loop()

        async def report_lines() -> AsyncIterator[bytes]:
            # In submission order; jobs run concurrently on the pool.
            try:
                for job_id, envelope in zip(job_ids, envelopes):
                    try:
                        report = await loop.run_in_executor(
                            None, self.session.result_envelope, job_id
                        )
                        line = report.to_json()
                    except ReproError as exc:
                        line = error_envelope_for(
                            exc, envelope.request_id
                        ).to_json()
                    yield line.encode("utf-8") + b"\n"
            finally:
                # The batch's jobs belong to this response: if the
                # client disconnects mid-stream, nothing else holds the
                # ids, so un-streamed reports would be unretrievable
                # AND retention-exempt.  Mark them all retrieved.
                for job_id in job_ids:
                    try:
                        self.session.job(job_id).retrieved = True
                    except UnknownNameError:
                        pass  # already evicted

        return _Response(status=200, stream=report_lines(), content_type=_JSON)

    async def _post_jobs(self, request: _Request) -> _Response:
        if self.tracer is not None:
            job_id, trace_id = self._traced_submit(request)
            response = _json_response(202, self._job_payload(job_id))
            response.headers[TRACE_HEADER] = trace_id
            return response
        envelope = self._parse_envelope(request.body)
        job_id = self.session.submit(envelope, wire=True)
        return _json_response(202, self._job_payload(job_id))

    def _traced_submit(self, request: _Request) -> tuple[str, str]:
        """Traced job submission: the job's span tree parents here.

        The request span closes when the 202 goes out; the job span it
        parents starts at submission and outlives it (children may end
        after their parent — readers sort by start time, not nesting).
        """
        tracer = self.tracer
        assert tracer is not None
        parse_started = clock.perf_counter()
        envelope = self._parse_envelope(request.body)
        parse_ended = clock.perf_counter()
        root_start = (
            min(request.ingress[0], parse_started)
            if request.ingress is not None
            else parse_started
        )
        with tracer.span(
            "request",
            parent=self._envelope_trace_parent(envelope),
            start=root_start,
            attrs={
                "route": "jobs",
                "request_id": envelope.request_id or "",
            },
        ) as span:
            if request.ingress is not None:
                self._record_ingress(tracer, span, request, parse_started)
            tracer.record(
                "parse",
                parent=span.context,
                start=parse_started,
                end=parse_ended,
            )
            job_id = self.session.submit(envelope, wire=True)
            span.attrs["job_id"] = job_id
            return job_id, span.context.trace_id

    def _job_payload(self, job_id: str) -> dict[str, Any]:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": "job",
            "job_id": job_id,
            "status": self.session.poll(job_id),
        }

    def _job_poll_handler(self, job_id: str):
        async def handler(request: _Request) -> _Response:
            return _json_response(200, self._job_payload(job_id))

        return handler

    def _job_result_handler(self, job_id: str):
        async def handler(request: _Request) -> _Response:
            job = self.session.job(job_id)
            if not job.done.is_set():
                return _json_response(202, self._job_payload(job_id))
            if job.error is not None:
                # The error IS the result: mark it retrieved so failed
                # jobs participate in retention eviction too, and
                # commit it to the replay table — retrieval may evict
                # the job, so a retried GET must replay, not 404.
                job.retrieved = True
                response = _error_response(
                    error_envelope_for(job.error, job.envelope.request_id)
                )
                response.replayable = True
                return response
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                None, self.session.result_envelope, job_id
            )
            response = _json_response(200, report.to_json())
            response.replayable = True
            return response

        return handler

    async def _post_ingest(self, request: _Request) -> _Response:
        text = request.body.decode("utf-8", errors="replace")
        if not text.strip():
            raise ValidationError("ingest body contains no telemetry records")
        loop = asyncio.get_running_loop()
        routed = await loop.run_in_executor(
            None, self.ingestor.submit_jsonl, text
        )
        return _json_response(
            202,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "ingest-ack",
                "routed": routed,
                "shards": self.ingestor.num_shards,
            },
        )

    async def _post_flush(self, request: _Request) -> _Response:
        loop = asyncio.get_running_loop()
        merged = await loop.run_in_executor(None, self.ingestor.flush)
        return _json_response(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "ingest-ack",
                "merged": merged,
                "merges": self.ingestor.merges,
            },
        )

    def _require_trace_store(self) -> "TraceStore":
        store = self.trace_store
        if store is None:
            raise _HttpError(
                ErrorEnvelope(
                    404, "tracing-disabled",
                    "tracing is disabled on this server; restart it with "
                    "trace=True (repro serve --trace)",
                )
            )
        return store

    async def _get_traces(self, request: _Request) -> _Response:
        store = self._require_trace_store()
        query = parse_qs(request.path.partition("?")[2])
        try:
            min_duration = float(query.get("min_duration", ["0"])[0])
            limit = int(query.get("limit", ["50"])[0])
        except ValueError as exc:
            raise ValidationError(f"bad traces query parameter: {exc}") from exc
        return _json_response(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "traces",
                "traces": store.summaries(
                    min_duration=min_duration, limit=limit
                ),
                "dropped": store.dropped,
            },
        )

    def _trace_handler(self, trace_id: str):
        async def handler(request: _Request) -> _Response:
            store = self._require_trace_store()
            spans = store.get(trace_id)
            if spans is None:
                raise _HttpError(
                    ErrorEnvelope(
                        404, "unknown-name",
                        f"no trace {trace_id!r} in the store (it may have "
                        "been evicted; raise trace_capacity)",
                    )
                )
            return _json_response(
                200,
                {
                    "schema_version": ENVELOPE_SCHEMA_VERSION,
                    "kind": "trace",
                    "trace_id": trace_id,
                    "spans": [span.to_dict() for span in spans],
                },
            )

        return handler

    async def _get_metrics(self, request: _Request) -> _Response:
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, self.metrics.render)
        return _Response(
            status=200, body=body.encode("utf-8"), content_type=_PROMETHEUS
        )

    async def _get_health(self, request: _Request) -> _Response:
        return _json_response(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "health",
                "status": "ok",
                "providers": sorted(self.broker.providers),
            },
        )
