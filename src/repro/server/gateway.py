"""The gateway: one hardened HTTP edge over N partitioned workers.

:class:`GatewayServer` is the multi-process serving mode (``repro
serve --workers N``).  It reuses the exact
:class:`~repro.server.transport.HttpEdge` the in-process server runs —
same HTTP parsing, same guard pipeline, same idempotency table — so
auth, rate limiting and replay execute *exactly once*, at the edge,
before a request is routed anywhere.  A keyed retry therefore replays
the original bytes even when it would have routed to a different
worker than the first attempt: replay precedes routing.

Behind the edge sit N spawned worker processes (see
:mod:`repro.server.worker`), each owning a disjoint partition of the
engine-cache keyspace via consistent content-keyed routing
(:func:`~repro.server.dispatch.routing_key`): provider-pinned requests
route by provider set, unpinned by canonical request JSON, job GETs by
the arithmetic of strided job ids.  Warm engines never thrash across
workers, and each worker evaluates on its own GIL.

Aggregation endpoints:

- ``/healthz`` is answered locally: overall status (``ok`` /
  ``degraded``), the provider list, and a per-worker
  ``{index, alive, pid, epoch}`` table.
- ``/metrics`` scrapes every live worker and merges the expositions
  sample-by-sample (:func:`~repro.server.metrics.merge_expositions`),
  then appends the gateway's own edge families
  (:class:`GatewayMetrics`) — each family exported exactly once.
- ``/v2/traces`` fans out and concatenates; ``/v2/traces/{id}`` tries
  each worker until one has the trace.
- ``/v2/ingest`` and ``/v2/ingest/flush`` broadcast to *all* workers
  (every partition needs the full telemetry picture, since an unpinned
  request evaluates every provider) and answer with worker 0's bytes.

Worker death is detected as EOF on the dispatch link: pending requests
on that worker fail with a 503 ``worker-unavailable`` envelope, new
envelope requests fall through to the next live partition, ``/healthz``
degrades, and a supervisor task respawns the worker at the same index
with ``epoch + 1`` (its fresh id block can never collide with ids the
dead worker minted).  Workers are spawned — never forked — because the
gateway already runs threads (REP008).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import secrets
from typing import AsyncIterator
from urllib.parse import parse_qs

from repro.broker.envelope import ENVELOPE_SCHEMA_VERSION, ErrorEnvelope
from repro.broker.service import BrokerService
from repro.errors import BrokerError, ValidationError
from repro.obs import clock
from repro.server.core import (
    _PROMETHEUS,
    _error_handler,
    _HttpError,
    _json_response,
    _Request,
    _Response,
    logger,
    resolve_route,
)
from repro.server.dispatch import (
    WorkerSpec,
    batch_routing_key,
    job_partition,
    partition_for,
    read_frame,
    routing_key,
    send_frame,
)
from repro.server.metrics import (
    EdgeMetricsMixin,
    MetricsRegistry,
    merge_expositions,
)
from repro.server.transport import HttpEdge
from repro.server.worker import worker_main

#: Queue sentinel: the worker died with this stream open.
_LINK_DOWN = object()


class WorkerUnavailable(Exception):
    """The worker serving (or needed for) a request is gone."""


def _unavailable_envelope(detail: str) -> ErrorEnvelope:
    return ErrorEnvelope(
        503, "worker-unavailable",
        f"{detail}; the supervisor is respawning the worker — retry",
    )


class GatewayMetrics(EdgeMetricsMixin):
    """The gateway's own registry: edge families + fleet supervision.

    Worker processes export the serving families (cache, jobs, ingest,
    spans) with ``edge=False``; the gateway owns the complementary
    half — HTTP counters, latency, auth/rate-limit/replay counters —
    plus the two supervision samples below.  ``/metrics`` concatenates
    the merged worker exposition with this registry's render.
    """

    def __init__(
        self, *, idempotency_store=None, rate_limiter=None, workers_alive=None
    ) -> None:
        self.registry = MetricsRegistry()
        self._register_edge_metrics(
            self.registry,
            idempotency_store=idempotency_store,
            rate_limiter=rate_limiter,
        )
        self.workers_alive = self.registry.gauge(
            "repro_gateway_workers_alive",
            "Worker processes currently connected to the gateway.",
        )
        if workers_alive is not None:
            self.workers_alive.set_function(workers_alive)
        self.worker_restarts = self.registry.counter(
            "repro_gateway_worker_restarts_total",
            "Dead workers respawned by the gateway supervisor.",
        )

    def render(self) -> str:
        return self.registry.render()


class _WorkerLink:
    """One live dispatch connection to a worker process."""

    def __init__(
        self,
        index: int,
        epoch: int,
        pid: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.index = index
        self.epoch = epoch
        self.pid = pid
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.alive = True
        self.pending: dict[int, asyncio.Future] = {}
        self.streams: dict[int, asyncio.Queue] = {}


class GatewayServer(HttpEdge):
    """The two-tier server: hardened edge + partitioned worker fleet.

    Accepts the full :class:`~repro.server.transport.BrokerServer`
    keyword surface (each worker builds the serving stack from it) plus
    ``workers`` — the fleet size.  ``port=0`` binds an ephemeral port;
    read :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        broker: BrokerService,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 4,
        ingest_backend: str = "thread",
        merge_interval: float | None = 0.5,
        max_workers: int = 4,
        cache_capacity: int = 16,
        eval_backend: str | None = None,
        finished_job_ttl: float | None = None,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_inflight: int = 32,
        grace: float = 5.0,
        trace: bool = False,
        trace_capacity: int = 256,
        slow_request_threshold: float | None = None,
        profile_requests: bool = False,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_limit_burst: int | None = None,
        idempotency_capacity: int = 1024,
        exempt_routes: tuple[str, ...] = ("healthz", "metrics"),
        spawn_timeout: float = 120.0,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers!r}")
        if not trace:
            if slow_request_threshold is not None:
                raise ValidationError(
                    "slow_request_threshold requires trace=True"
                )
            if profile_requests:
                raise ValidationError("profile_requests requires trace=True")
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
        self.workers = workers
        self.trace = trace
        # The gateway holds no session; tracing/serving state lives in
        # the workers.  Kept as attributes for ServerHandle symmetry.
        self.tracer = None
        self.trace_store = None
        self._spawn_timeout = spawn_timeout
        self._worker_kwargs = dict(
            shards=shards,
            ingest_backend=ingest_backend,
            merge_interval=merge_interval,
            max_workers=max_workers,
            cache_capacity=cache_capacity,
            eval_backend=eval_backend,
            finished_job_ttl=finished_job_ttl,
            trace=trace,
            trace_capacity=trace_capacity,
            profile_requests=profile_requests,
            max_inflight=max_inflight,
        )
        self._token = secrets.token_hex(16)
        self._links: list[_WorkerLink | None] = [None] * workers
        self._epochs = [0] * workers
        self._procs: dict[int, object] = {}
        self._ready: list[asyncio.Event] = []
        self._reader_tasks: set[asyncio.Task] = set()
        self._respawn_tasks: set[asyncio.Task] = set()
        self._dispatch_server: asyncio.Server | None = None
        self._dispatch_port = 0
        self._next_request_id = 0
        self.metrics = GatewayMetrics(
            idempotency_store=self.idempotency,
            rate_limiter=self.rate_limiter,
            workers_alive=self._alive_count,
        )

    def _alive_count(self) -> float:
        return float(
            sum(1 for link in self._links if link is not None and link.alive)
        )

    # -- fleet lifecycle ---------------------------------------------------

    async def _start_resources(self) -> None:
        """Bring up the dispatch listener and the worker fleet."""
        self._ready = [asyncio.Event() for _ in range(self.workers)]
        self._dispatch_server = await asyncio.start_server(
            self._accept_worker, host="127.0.0.1", port=0
        )
        self._dispatch_port = (
            self._dispatch_server.sockets[0].getsockname()[1]
        )
        loop = asyncio.get_running_loop()
        for index in range(self.workers):
            self._procs[index] = await loop.run_in_executor(
                None, self._spawn_process, index, 0
            )
        waits = [event.wait() for event in self._ready]
        try:
            await asyncio.wait_for(
                asyncio.gather(*waits), timeout=self._spawn_timeout
            )
        except asyncio.TimeoutError:
            missing = [
                index
                for index, event in enumerate(self._ready)
                if not event.is_set()
            ]
            raise BrokerError(
                f"workers {missing} did not connect within "
                f"{self._spawn_timeout:.0f}s"
            ) from None
        logger.info(
            "gateway fleet up: %d workers on dispatch port %d",
            self.workers,
            self._dispatch_port,
        )

    def _spawn_process(self, index: int, epoch: int):
        """Start one worker (blocking; runs on the executor).

        Spawn, never fork: the gateway event loop already runs threads
        (the executor, the server thread under ``start_in_thread``),
        and forking a threaded process inherits locked locks.
        """
        spec = WorkerSpec(
            index=index,
            workers=self.workers,
            epoch=epoch,
            dispatch_port=self._dispatch_port,
            token=self._token,
            broker=self.broker,
            **self._worker_kwargs,
        )
        ctx = multiprocessing.get_context("spawn")
        # daemon=False: worker sessions may run the process eval
        # backend, and daemonic processes cannot have children.  The
        # worker self-exits on dispatch-link EOF instead.
        process = ctx.Process(
            target=worker_main,
            args=(spec,),
            name=f"repro-gateway-worker-{index}",
            daemon=False,
        )
        process.start()
        return process

    async def _accept_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Handshake one dialing worker onto the fleet."""
        try:
            hello, _ = await asyncio.wait_for(read_frame(reader), timeout=30.0)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            writer.close()
            return
        if (
            hello.get("kind") != "hello"
            or hello.get("token") != self._token
            or not isinstance(hello.get("index"), int)
            or not 0 <= hello["index"] < self.workers
        ):
            logger.warning("rejected dispatch connection: bad hello")
            writer.close()
            return
        index = hello["index"]
        link = _WorkerLink(
            index=index,
            epoch=int(hello.get("epoch", 0)),
            pid=int(hello.get("pid", 0)),
            reader=reader,
            writer=writer,
        )
        await send_frame(
            writer,
            link.lock,
            {"kind": "hello-ack", "gateway_perf": clock.perf_counter()},
        )
        self._links[index] = link
        task = asyncio.create_task(self._read_worker(link))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)
        if index < len(self._ready):
            self._ready[index].set()

    async def _read_worker(self, link: _WorkerLink) -> None:
        """Demultiplex one worker's response frames until the link dies."""
        try:
            while True:
                header, body = await read_frame(link.reader)
                kind = header.get("kind")
                request_id = header.get("id")
                if kind == "response":
                    future = link.pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result((header, body))
                elif kind == "stream-head":
                    queue: asyncio.Queue = asyncio.Queue()
                    link.streams[request_id] = queue
                    future = link.pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result((header, queue))
                elif kind == "chunk":
                    queue = link.streams.get(request_id)
                    if queue is not None:
                        queue.put_nowait(body)
                elif kind == "stream-end":
                    queue = link.streams.pop(request_id, None)
                    if queue is not None:
                        queue.put_nowait(None)
                else:
                    logger.warning("unknown worker frame kind %r", kind)
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass
        finally:
            link.alive = False
            error = WorkerUnavailable(
                f"worker {link.index} (pid {link.pid}) disconnected"
            )
            for future in link.pending.values():
                if not future.done():
                    future.set_exception(error)
            link.pending.clear()
            for queue in link.streams.values():
                queue.put_nowait(_LINK_DOWN)
            link.streams.clear()
            link.writer.close()
            if not self._stopped:
                logger.warning(
                    "worker %d (pid %d) died; respawning",
                    link.index,
                    link.pid,
                )
                task = asyncio.create_task(self._respawn(link.index))
                self._respawn_tasks.add(task)
                task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, index: int) -> None:
        """Supervisor: replace a dead worker at the same index.

        The new worker gets ``epoch + 1`` — its strided job-id block is
        disjoint from every id its predecessors minted, so a stale
        ``job-...`` id can never alias a fresh job.
        """
        self._epochs[index] += 1
        epoch = self._epochs[index]
        self.metrics.worker_restarts.inc()
        loop = asyncio.get_running_loop()
        old = self._procs.get(index)
        if old is not None:
            await loop.run_in_executor(None, lambda: old.join(5.0))
        if self._stopped:
            return
        self._procs[index] = await loop.run_in_executor(
            None, self._spawn_process, index, epoch
        )

    async def _close_resources(self) -> None:
        """Tear down the fleet: EOF the links, reap the processes."""
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._respawn_tasks:
            await asyncio.gather(*self._respawn_tasks, return_exceptions=True)
        if self._dispatch_server is not None:
            self._dispatch_server.close()
            await self._dispatch_server.wait_closed()
        for link in self._links:
            if link is not None:
                link.writer.close()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()

        def reap() -> None:
            for process in self._procs.values():
                process.join(self.grace + 5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(2.0)

        await loop.run_in_executor(None, reap)

    # -- request forwarding ------------------------------------------------

    def _exact_link(self, partition: int) -> _WorkerLink:
        """The link at ``partition`` — dead means 503, never reroute.

        Job state is worker-local: polling another worker for a dead
        worker's job would turn "retry shortly" into a wrong 404.
        """
        link = self._links[partition]
        if link is None or not link.alive:
            raise WorkerUnavailable(
                f"worker {partition} is down (respawn in progress)"
            )
        return link

    def _alive_link(self, partition: int) -> _WorkerLink:
        """The link at ``partition``, falling forward past dead workers.

        Fresh envelope requests carry no worker-local state, so during
        a respawn window they run (colder) on the next live partition
        instead of failing.
        """
        for offset in range(self.workers):
            link = self._links[(partition + offset) % self.workers]
            if link is not None and link.alive:
                return link
        raise WorkerUnavailable("no worker processes are available")

    async def _forward(self, link: _WorkerLink, request: _Request) -> _Response:
        """Ship one request frame to a worker and await its response."""
        self._next_request_id += 1
        request_id = self._next_request_id
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        link.pending[request_id] = future
        try:
            await send_frame(
                link.writer,
                link.lock,
                {
                    "kind": "request",
                    "id": request_id,
                    "method": request.method,
                    "path": request.path,
                    "headers": request.headers,
                    "peer": request.peer,
                    "enqueued": clock.perf_counter(),
                },
                request.body,
            )
        except (ConnectionError, RuntimeError) as exc:
            link.pending.pop(request_id, None)
            raise WorkerUnavailable(
                f"worker {link.index} link write failed"
            ) from exc
        try:
            header, payload = await future
        except asyncio.CancelledError:
            link.pending.pop(request_id, None)
            raise
        if header["kind"] == "stream-head":
            return _Response(
                status=int(header["status"]),
                content_type=header.get("content_type", "application/json"),
                headers=dict(header.get("headers") or {}),
                stream=self._relay(link, request_id, payload),
            )
        replayable = header.get("replayable")
        return _Response(
            status=int(header["status"]),
            body=payload,
            content_type=header.get("content_type", "application/json"),
            headers=dict(header.get("headers") or {}),
            replayable=replayable if isinstance(replayable, bool) else None,
        )

    async def _relay(
        self, link: _WorkerLink, request_id: int, queue: asyncio.Queue
    ) -> AsyncIterator[bytes]:
        """Relay one worker stream chunk-for-chunk, boundaries intact."""
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return  # stream-end
                if item is _LINK_DOWN:
                    logger.warning(
                        "worker %d died mid-stream; truncating response",
                        link.index,
                    )
                    return
                yield item
        finally:
            if link.streams.pop(request_id, None) is not None:
                # Client went away before stream-end: tell the worker
                # so it cancels the batch and finalizes its jobs.
                try:
                    await send_frame(
                        link.writer,
                        link.lock,
                        {"kind": "cancel", "id": request_id},
                    )
                except (ConnectionError, RuntimeError):
                    pass

    # -- routing -----------------------------------------------------------

    def _route(self, request: _Request):
        route, param, envelope = resolve_route(request.method, request.path)
        if envelope is not None:
            return route, _error_handler(envelope)
        local = {
            "healthz": self._get_health,
            "metrics": self._get_metrics,
            "traces": self._get_traces,
            "ingest": self._broadcast_handler,
            "ingest-flush": self._broadcast_handler,
        }
        if route in local:
            return route, local[route]
        if route == "trace":
            return route, self._sweep_handler
        if route in ("job", "job-result"):
            return route, self._job_handler(param)
        assert route in ("recommend", "jobs", "batch"), route
        return route, self._envelope_handler(route)

    def _envelope_handler(self, route: str):
        async def handler(request: _Request) -> _Response:
            key_fn = batch_routing_key if route == "batch" else routing_key
            key = key_fn(request.body) or ""
            partition = partition_for(key, self.workers)
            try:
                return await self._forward(
                    self._alive_link(partition), request
                )
            except WorkerUnavailable as exc:
                raise _HttpError(_unavailable_envelope(str(exc))) from exc

        return handler

    def _job_handler(self, job_id: str):
        async def handler(request: _Request) -> _Response:
            partition = job_partition(job_id, self.workers)
            try:
                if partition is None:
                    # Not one of ours; any worker 404s it identically.
                    link = self._alive_link(
                        partition_for(job_id, self.workers)
                    )
                else:
                    link = self._exact_link(partition)
                return await self._forward(link, request)
            except WorkerUnavailable as exc:
                raise _HttpError(_unavailable_envelope(str(exc))) from exc

        return handler

    async def _broadcast_handler(self, request: _Request) -> _Response:
        """Ingest routes go to every worker; worker 0's bytes answer.

        Each worker holds its own copy of the telemetry store, and any
        of them may serve any unpinned request — so all of them need
        every record.  Acks are identical across workers (same shard
        count, same routing), making the lowest-index response safely
        representative.
        """
        links = [
            link for link in self._links if link is not None and link.alive
        ]
        if not links:
            raise _HttpError(
                _unavailable_envelope("no worker processes are available")
            )
        results = await asyncio.gather(
            *(self._forward(link, request) for link in links),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, _Response):
                return result
        raise _HttpError(
            _unavailable_envelope("every worker failed during broadcast")
        )

    async def _sweep_handler(self, request: _Request) -> _Response:
        """GET /v2/traces/{id}: try each worker until one has it."""
        last: _Response | None = None
        for link in self._links:
            if link is None or not link.alive:
                continue
            try:
                response = await self._forward(link, request)
            except WorkerUnavailable:
                continue
            last = response
            if response.status != 404:
                return response
        if last is None:
            raise _HttpError(
                _unavailable_envelope("no worker processes are available")
            )
        return last

    async def _get_traces(self, request: _Request) -> _Response:
        """GET /v2/traces: fan out and concatenate worker summaries."""
        links = [
            link for link in self._links if link is not None and link.alive
        ]
        if not links:
            raise _HttpError(
                _unavailable_envelope("no worker processes are available")
            )
        responses = []
        for link in links:
            try:
                responses.append(await self._forward(link, request))
            except WorkerUnavailable:
                continue
        if not responses:
            raise _HttpError(
                _unavailable_envelope("every worker failed during fan-out")
            )
        for response in responses:
            if response.status != 200:
                return response  # tracing-disabled 404 / bad-query 400
        if len(responses) == 1:
            return responses[0]
        query = parse_qs(request.path.partition("?")[2])
        try:
            limit = int(query.get("limit", ["50"])[0])
        except ValueError:
            limit = 50  # the workers already rejected bad queries above
        traces: list = []
        dropped = 0
        for response in responses:
            payload = json.loads(response.body)
            traces.extend(payload.get("traces") or [])
            dropped += int(payload.get("dropped") or 0)
        return _json_response(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "traces",
                "traces": traces[:limit],
                "dropped": dropped,
            },
        )

    async def _get_metrics(self, request: _Request) -> _Response:
        """GET /metrics: merged worker exposition + gateway edge families."""
        links = [
            link for link in self._links if link is not None and link.alive
        ]
        texts: list[str] = []
        for link in links:
            try:
                response = await self._forward(link, request)
            except WorkerUnavailable:
                continue
            if response.status == 200:
                texts.append(response.body.decode("utf-8"))
        body = merge_expositions(texts) + self.metrics.render()
        return _Response(
            status=200, body=body.encode("utf-8"), content_type=_PROMETHEUS
        )

    async def _get_health(self, request: _Request) -> _Response:
        """GET /healthz: local aggregation; worker death surfaces here."""
        fleet = []
        for index in range(self.workers):
            link = self._links[index]
            alive = link is not None and link.alive
            fleet.append(
                {
                    "index": index,
                    "alive": alive,
                    "pid": link.pid if link is not None else None,
                    "epoch": self._epochs[index],
                }
            )
        degraded = any(not entry["alive"] for entry in fleet)
        return _json_response(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "kind": "health",
                "status": "degraded" if degraded else "ok",
                "providers": sorted(self.broker.providers),
                "workers": fleet,
            },
        )
