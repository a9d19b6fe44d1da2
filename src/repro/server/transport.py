"""The broker's asyncio wire transport: envelopes over HTTP/1.1.

PR 2 defined the v2 envelope protocol; this module puts a real socket
in front of it.  :class:`BrokerServer` is a stdlib-only asyncio HTTP
server speaking JSON envelopes:

==========================  ==============================================
``POST /v2/recommend``      one :class:`RecommendEnvelope` in, one
                            :class:`ReportEnvelope` out
``POST /v2/batch``          JSONL of request envelopes in; report
                            envelopes stream back chunk-by-chunk in
                            submission order as jobs finish
``POST /v2/jobs``           submit → ``202`` + job envelope
``GET /v2/jobs/{id}``       poll → job envelope
``GET /v2/jobs/{id}/result``  ``200`` report / ``202`` still running
``POST /v2/ingest``         JSONL telemetry records → sharded pipeline
``POST /v2/ingest/flush``   force a snapshot merge (admin/testing)
``GET /v2/traces``          recent trace summaries (``?min_duration=``,
                            ``?limit=``); 404 when tracing is off
``GET /v2/traces/{id}``     one trace's full span list
``GET /metrics``            Prometheus text exposition
``GET /healthz``            liveness probe
==========================  ==============================================

PR 10 split the stack in two.  The route handlers and their session /
ingest / metrics state live in :class:`repro.server.core.RequestCore`;
this module keeps the socket frontend.  :class:`HttpEdge` is the
reusable edge — HTTP/1.1 parsing and serialization, keep-alive,
backpressure, graceful shutdown, and the full hardening pipeline
(bearer auth, token-bucket rate limiting, idempotency replay) — with
routing left abstract.  :class:`BrokerServer` composes an
:class:`HttpEdge` directly over a :class:`RequestCore` (the in-process
mode, default); :class:`repro.server.gateway.GatewayServer` composes
the same edge over a partitioned fleet of worker processes.

Tracing (``trace=True`` / ``repro serve --trace``) threads a
:class:`~repro.obs.trace.Tracer` through the session, the engines and
the metrics registry.  Traced ``/v2/recommend`` and ``/v2/jobs``
requests open the root ``request`` span in the core (back-dated to
parse start), honour a client-stamped ``trace`` field on the envelope,
and return the trace id in the ``X-Repro-Trace-Id`` response header.
Disabled tracing costs the hot path one ``is not None`` check.

Every failure is answered with a structured
:class:`~repro.broker.envelope.ErrorEnvelope` and a non-2xx status —
malformed JSON, unsupported ``schema_version``, unknown provider or job
ids — never a traceback, never a dropped connection.

Backpressure and shutdown:

- request head and body sizes are bounded (413 beyond the cap);
- a server-wide semaphore caps in-flight request handling; excess
  requests queue at the socket, and responses are written through
  ``writer.drain()`` so slow readers throttle their own connection;
- ``stop()`` closes the listener, wakes idle keep-alive connections,
  lets in-flight requests finish (bounded by ``grace``), then closes
  the session and flushes/closes the ingestion pipeline.

CPU-bound optimization work never blocks the event loop: it runs on
the loop's default thread-pool executor, where the
:class:`~repro.broker.api.BrokerSession`'s engine-cache locking already
makes concurrent serving safe.
"""

from __future__ import annotations

import asyncio
import atexit
import json
import math
import os
import threading

from repro.broker.envelope import ErrorEnvelope
from repro.broker.service import BrokerService
from repro.errors import ValidationError
from repro.obs import clock
from repro.obs.logging import log_slow_request
from repro.server.core import (  # noqa: F401 - re-exported compatibility names
    _JSON,
    _PROMETHEUS,
    _REASONS,
    KEYED_ROUTES,
    SERVED_ROUTES,
    TRACE_HEADER,
    RequestCore,
    _error_response,
    _HttpError,
    _json_response,
    _Request,
    _Response,
    error_envelope_for,
    logger,
    resolve_route,
)
from repro.server.hardening import (
    IDEMPOTENCY_KEY_HEADER,
    MAX_IDEMPOTENCY_KEY_LENGTH,
    REPLAY_HEADER,
    IdempotencyStore,
    RateLimiter,
    ReplayKey,
    StoredResponse,
    authenticate,
    principal_for,
)


class HttpEdge:
    """The reusable asyncio HTTP/1.1 edge with edge hardening built in.

    Owns the listening socket, connection lifecycle, request parsing /
    response serialization, the in-flight semaphore, and the guard
    pipeline (auth → rate limit → idempotency replay).  Subclasses
    supply :meth:`_route` — resolve one request to ``(route name, async
    handler)`` — and :meth:`_close_resources` for whatever sits behind
    the edge.  ``port=0`` binds an ephemeral port; read :attr:`port`
    after :meth:`start`.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_inflight: int = 32,
        grace: float = 5.0,
        slow_request_threshold: float | None = None,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_limit_burst: int | None = None,
        idempotency_capacity: int = 1024,
        exempt_routes: tuple[str, ...] = ("healthz", "metrics"),
    ) -> None:
        if max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {max_inflight!r}"
            )
        if slow_request_threshold is not None and (
            not math.isfinite(slow_request_threshold)
            or slow_request_threshold < 0.0
        ):
            raise ValidationError(
                "slow_request_threshold must be finite and >= 0, got "
                f"{slow_request_threshold!r}"
            )
        if auth_token is not None and not auth_token:
            raise ValidationError("auth_token must be non-empty when set")
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.grace = grace
        self.auth_token = auth_token
        # Liveness/scrape probes stay reachable without credentials and
        # outside the rate limit, so hardening never blinds monitoring.
        self.exempt_routes = frozenset(exempt_routes)
        self.rate_limiter = (
            RateLimiter(rate_limit, rate_limit_burst)
            if rate_limit is not None
            else None
        )
        self.idempotency = IdempotencyStore(capacity=idempotency_capacity)
        self.slow_request_threshold = slow_request_threshold
        self._max_inflight = max_inflight
        self._server: asyncio.Server | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._closing: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self._stopped = False

    # -- subclass surface --------------------------------------------------

    def _route(self, request: _Request):
        """Resolve one request to ``(route name, async handler)``."""
        raise NotImplementedError

    async def _start_resources(self) -> None:
        """Bring up whatever serves behind the edge (before binding)."""

    async def _close_resources(self) -> None:
        """Tear down whatever serves behind the edge (after draining)."""

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._inflight = asyncio.Semaphore(self._max_inflight)
        self._closing = asyncio.Event()
        await self._start_resources()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=64 * 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("broker server listening on %s:%s", self.host, self.port)

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (from another task)."""
        assert self._closing is not None, "start() first"
        await self._closing.wait()

    async def stop(self) -> None:
        """Graceful shutdown; idempotent.

        Stops accepting, wakes idle keep-alive reads, waits up to
        ``grace`` seconds for in-flight requests, cancels stragglers,
        then tears down whatever serves behind the edge (session and
        ingestion pipeline in-process; the worker fleet under a
        gateway).
        """
        if self._stopped:
            return
        self._stopped = True
        if self._closing is not None:
            self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=self.grace
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self._close_resources()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None and self._closing is not None
        self._connections.add(task)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername or "")
        try:
            while not self._closing.is_set():
                request = await self._read_request(reader)
                if request is None:
                    break
                if isinstance(request, _Response):
                    # Unparseable/oversized head: answer and hang up.
                    await self._write_response(writer, request, keep_alive=False)
                    break
                request.peer = peer
                started = clock.perf_counter()
                route, response = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._closing.is_set()
                await self._write_response(writer, response, keep_alive)
                elapsed = clock.perf_counter() - started
                self.metrics.observe_request(route, response.status, elapsed)
                threshold = self.slow_request_threshold
                if threshold is not None and elapsed >= threshold:
                    log_slow_request(
                        logger,
                        route=route,
                        status=response.status,
                        seconds=elapsed,
                        threshold=threshold,
                        trace_id=response.headers.get(TRACE_HEADER),
                    )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response; nothing to answer
        except asyncio.CancelledError:
            raise
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "_Request | _Response | None":
        """Read one request; None on clean EOF/shutdown, _Response on error.

        The idle read races the shutdown event so ``stop()`` does not
        wait out keep-alive connections that will never speak again.
        """
        assert self._closing is not None
        head_task = asyncio.ensure_future(reader.readuntil(b"\r\n\r\n"))
        closing_task = asyncio.ensure_future(self._closing.wait())
        try:
            done, _ = await asyncio.wait(
                {head_task, closing_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            closing_task.cancel()
        if head_task not in done:
            head_task.cancel()
            await asyncio.gather(head_task, return_exceptions=True)
            return None
        try:
            head = head_task.result()
        except asyncio.IncompleteReadError:
            return None  # EOF between requests: clean close
        except asyncio.LimitOverrunError:
            return _error_response(
                ErrorEnvelope(413, "request-too-large", "request head too large")
            )
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return _error_response(
                ErrorEnvelope(400, "malformed-request", "unparseable request line")
            )
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            return _error_response(
                ErrorEnvelope(
                    400, "malformed-request",
                    "chunked request bodies are not supported; "
                    "send Content-Length",
                )
            )
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return _error_response(
                ErrorEnvelope(400, "malformed-request", "bad Content-Length")
            )
        if length > self.max_body_bytes:
            return _error_response(
                ErrorEnvelope(
                    413, "request-too-large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit",
                )
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(method=method, path=path, headers=headers, body=body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: _Response,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        headers = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(
            f"{name}: {value}" for name, value in response.headers.items()
        )
        if response.stream is None:
            headers.append(f"Content-Length: {len(response.body)}")
            head = "\r\n".join(headers) + "\r\n\r\n"
            writer.write(head.encode("latin-1") + response.body)
            await writer.drain()
            return
        headers.append("Transfer-Encoding: chunked")
        head = "\r\n".join(headers) + "\r\n\r\n"
        writer.write(head.encode("latin-1"))
        await writer.drain()
        try:
            async for chunk in response.stream:
                if not chunk:
                    continue
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
                writer.write(chunk + b"\r\n")
                await writer.drain()  # per-connection backpressure
        finally:
            # Deterministic generator finalization: a disconnect mid-
            # stream must run the generator's cleanup now, not at GC.
            await response.stream.aclose()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, request: _Request) -> tuple[str, _Response]:
        """Route one request through the hardening pipeline.

        Order matters: authentication first (an unauthenticated caller
        learns nothing, not even its rate-limit state), then rate
        limiting, then idempotency replay — a replay costs no handler
        work but still spends a token, so retry storms cannot bypass
        the limiter.  Every exception becomes an error envelope.
        """
        assert self._inflight is not None
        route, handler = self._route(request)
        guarded = self._guard(request, route)
        if guarded is not None:
            return route, guarded
        try:
            replay_key = self._replay_key(request, route)
        except _HttpError as exc:
            return route, _error_response(exc.envelope)
        if replay_key is not None:
            return route, await self._keyed_dispatch(
                request, route, handler, replay_key
            )
        async with self._inflight:
            try:
                return route, await handler(request)
            except _HttpError as exc:
                return route, _error_response(exc.envelope)
            except Exception as exc:  # noqa: BLE001 - wire boundary
                return route, _error_response(error_envelope_for(exc))

    def _guard(self, request: _Request, route: str) -> "_Response | None":
        """Auth and rate-limit checks; a _Response rejects the request."""
        if route in self.exempt_routes:
            return None
        if self.auth_token is not None:
            failure = authenticate(self.auth_token, request.headers)
            if failure is not None:
                self.metrics.observe_auth_failure(failure.status)
                response = _error_response(failure)
                if failure.status == 401:
                    response.headers["WWW-Authenticate"] = "Bearer"
                return response
        if self.rate_limiter is not None:
            principal = principal_for(
                request.headers, request.peer, self.auth_token is not None
            )
            retry_after = self.rate_limiter.check(principal)
            if retry_after > 0.0:
                self.metrics.observe_rate_limited(route)
                response = _error_response(
                    ErrorEnvelope(
                        429, "rate-limited",
                        f"request rate limit exceeded for this client; "
                        f"retry after {retry_after:.3f}s",
                    )
                )
                # Decimal seconds (an RFC 9110 extension): integer
                # rounding would force sub-second buckets to lie.
                response.headers["Retry-After"] = f"{retry_after:.3f}"
                return response
        return None

    def _replay_key(self, request: _Request, route: str) -> ReplayKey | None:
        """The idempotency-table key for this request, if it has one.

        Explicitly-keyed routes take the ``Idempotency-Key`` header or,
        for envelope routes, the envelope's ``idempotency_key`` field.
        ``job-result`` is keyed implicitly by path: its first terminal
        response marks the job retrieved (eviction-eligible), so a
        "safe" idempotent retry after a dropped response must replay
        from the table rather than 404 on the evicted job.
        """
        principal = principal_for(
            request.headers, request.peer, self.auth_token is not None
        )
        if route == "job-result":
            return (principal, route, "path", request.path)
        if route not in KEYED_ROUTES:
            return None
        key = request.headers.get(IDEMPOTENCY_KEY_HEADER.lower())
        if key is None and b'"idempotency_key"' in request.body:
            # Envelope-stamped key: peek without full envelope
            # validation (the handler owns that) — a non-dict or
            # non-string field is the handler's error to report.
            try:
                payload = json.loads(request.body)
            except ValueError:
                return None
            value = (
                payload.get("idempotency_key")
                if isinstance(payload, dict)
                else None
            )
            if isinstance(value, str):
                key = value
        if key is None or not key:
            return None
        if len(key) > MAX_IDEMPOTENCY_KEY_LENGTH:
            raise _HttpError(
                ErrorEnvelope(
                    400, "validation-error",
                    f"idempotency key of {len(key)} characters exceeds "
                    f"the {MAX_IDEMPOTENCY_KEY_LENGTH}-character limit",
                )
            )
        return (principal, route, "key", key)

    async def _keyed_dispatch(
        self,
        request: _Request,
        route: str,
        handler,
        key: ReplayKey,
    ) -> _Response:
        """Run one keyed request through the replay table.

        Waiters block on the leader's future *without* holding an
        inflight-semaphore slot, so a full house of duplicates can
        never deadlock the leader out of the semaphore.
        """
        assert self._inflight is not None
        store = self.idempotency
        while True:
            action, entry = store.begin(key)
            if action == "replay":
                assert isinstance(entry, StoredResponse)
                return self._replayed_response(route, entry)
            if action == "wait":
                stored = await entry
                if stored is not None:
                    return self._replayed_response(route, stored)
                continue  # leader failed: re-race for the claim
            future = entry
            try:
                async with self._inflight:
                    try:
                        response = await handler(request)
                    except _HttpError as exc:
                        response = _error_response(exc.envelope)
                    except Exception as exc:  # noqa: BLE001 - wire boundary
                        response = _error_response(error_envelope_for(exc))
            except BaseException:
                # Cancellation (shutdown) must release waiters.
                store.abandon(key, future)
                raise
            if self._should_store(route, response):
                store.commit(
                    key,
                    future,
                    StoredResponse(
                        status=response.status,
                        content_type=response.content_type,
                        body=response.body,
                        headers=dict(response.headers),
                    ),
                )
            else:
                store.abandon(key, future)
            return response

    def _replayed_response(self, route: str, stored: StoredResponse) -> _Response:
        self.metrics.observe_replay(route)
        headers = dict(stored.headers)
        headers[REPLAY_HEADER] = "true"
        return _Response(
            status=stored.status,
            body=stored.body,
            content_type=stored.content_type,
            headers=headers,
        )

    def _should_store(self, route: str, response: _Response) -> bool:
        """Commit policy: which responses enter the replay table."""
        if response.stream is not None:
            return False
        if response.replayable is not None:
            return response.replayable
        if route == "job-result":
            # Only terminal outcomes replay; the handler marks them.
            # A 202 "still running" or a 404 must re-execute.
            return False
        # Keyed submission/ingest: success is committed; errors are
        # abandoned so a transient failure never pins under the key.
        return 200 <= response.status < 300


class BrokerServer(HttpEdge):
    """An asyncio TCP/HTTP front-end over one broker, in one process.

    The server composes an :class:`HttpEdge` directly over a
    :class:`~repro.server.core.RequestCore` — the cross-request engine
    cache and job table, the sharded ingestion pipeline and the metrics
    registry all live in this process.  ``port=0`` binds an ephemeral
    port; read :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        broker: BrokerService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 4,
        merge_interval: float | None = 0.5,
        max_workers: int = 4,
        cache_capacity: int = 16,
        finished_job_ttl: float | None = None,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_inflight: int = 32,
        grace: float = 5.0,
        trace: bool = False,
        trace_capacity: int = 256,
        slow_request_threshold: float | None = None,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_limit_burst: int | None = None,
        idempotency_capacity: int = 1024,
        exempt_routes: tuple[str, ...] = ("healthz", "metrics"),
    ) -> None:
        if not trace and slow_request_threshold is not None:
            raise ValidationError("slow_request_threshold requires trace=True")
        super().__init__(
            host=host,
            port=port,
            max_body_bytes=max_body_bytes,
            max_inflight=max_inflight,
            grace=grace,
            slow_request_threshold=slow_request_threshold,
            auth_token=auth_token,
            rate_limit=rate_limit,
            rate_limit_burst=rate_limit_burst,
            idempotency_capacity=idempotency_capacity,
            exempt_routes=exempt_routes,
        )
        self.broker = broker
        self.core = RequestCore(
            broker,
            shards=shards,
            merge_interval=merge_interval,
            max_workers=max_workers,
            cache_capacity=cache_capacity,
            finished_job_ttl=finished_job_ttl,
            trace=trace,
            trace_capacity=trace_capacity,
            idempotency_store=self.idempotency,
            rate_limiter=self.rate_limiter,
        )
        # The core's components under their historical names — tests,
        # benches and the CLI reach them through the server object.
        self.session = self.core.session
        self.ingestor = self.core.ingestor
        self.metrics = self.core.metrics
        self.tracer = self.core.tracer
        self.trace_store = self.core.trace_store

    def _route(self, request: _Request):
        return self.core.route(request)

    async def _close_resources(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.session.close)
        await loop.run_in_executor(None, self.ingestor.close)


# -- thread-hosted serving --------------------------------------------------

class ServerHandle:
    """A running server on a background event loop.

    The synchronous façade tests, the CLI and
    :class:`~repro.server.client.ServerClient` users drive: ``host`` /
    ``port`` / ``url`` for addressing, ``close()`` (or the context
    manager) for graceful shutdown.  Wraps either a
    :class:`BrokerServer` or a
    :class:`~repro.server.gateway.GatewayServer` — both share the
    :class:`HttpEdge` lifecycle.
    """

    def __init__(
        self,
        server: HttpEdge,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._closed = False

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Gracefully stop the server and join its loop thread."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout=self.server.grace + 30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()


def start_in_thread(
    broker: BrokerService, *, workers: int | None = None, **kwargs
) -> ServerHandle:
    """Start a broker server on a dedicated event-loop thread.

    Blocks until the socket is bound (so ``handle.port`` is final) and
    re-raises any startup failure in the caller.  ``workers`` selects
    the serving mode: ``0`` (the default) runs the in-process
    :class:`BrokerServer`; ``N >= 1`` runs the multi-process
    :class:`~repro.server.gateway.GatewayServer` over ``N`` partitioned
    worker processes.  ``None`` reads the ``REPRO_WORKERS`` environment
    variable (the CI matrix's knob for running the whole test suite
    against the gateway).  Remaining keyword arguments are forwarded to
    the server constructor.

    A gateway handle still open when the interpreter exits is closed by
    an ``atexit`` hook.  Without it, multiprocessing's own exit hook
    would join a worker that never sees its dispatch link close (the
    loop thread holding it is a daemon) and hang forever; atexit runs
    hooks last-registered first, so this one runs before that join.
    """
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "0") or "0")
    if workers > 0:
        from repro.server.gateway import GatewayServer

        server: HttpEdge = GatewayServer(broker, workers=workers, **kwargs)
    else:
        server = BrokerServer(broker, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            # The constructor already opened the session and ingestion
            # workers; a failed bind must not strand them.
            try:
                loop.run_until_complete(server.stop())
            except BaseException:  # noqa: BLE001 - best-effort cleanup
                logger.exception("cleanup after failed start also failed")
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="broker-server", daemon=True)
    thread.start()
    started.wait()
    if failure:
        loop.close()
        raise failure[0]
    handle = ServerHandle(server, loop, thread)
    if workers > 0:
        atexit.register(handle.close)
    return handle
