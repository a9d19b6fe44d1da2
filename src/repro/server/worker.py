"""A gateway worker process: one partition of the serving fleet.

:func:`worker_main` is the spawn target. Each worker owns a full
:class:`~repro.server.core.RequestCore` — its own
:class:`~repro.broker.api.BrokerSession` (a disjoint partition of the
engine-cache keyspace, by consistent routing at the gateway), its own
sharded ingestor over its own copy of the broker's telemetry store,
and an edge-free metrics registry (``metrics_edge=False``; the gateway
exports the HTTP/hardening families exactly once).

The worker dials the gateway's dispatch port, authenticates with the
shared token, completes the clock-offset handshake (see
:mod:`repro.server.dispatch`), then serves ``request`` frames until
EOF.  Each request runs as its own task, bounded by the worker's
in-flight semaphore; streaming responses relay chunk-by-chunk with
boundaries preserved, so batch output is byte-identical to the
in-process server's.  EOF on the dispatch link — gateway shutdown or
gateway death — is the exit signal: the worker cancels in-flight
tasks, closes its session and leaves, so a dead gateway can never leak
worker processes.

No HTTP, no sockets beyond the dispatch link, and no hardening live
here: the gateway owns the edge.
"""

from __future__ import annotations

import asyncio
import logging
import os

from repro.obs import clock
from repro.server.core import (
    RequestCore,
    _error_response,
    _HttpError,
    _Request,
    error_envelope_for,
)
from repro.server.dispatch import (
    WorkerSpec,
    job_id_start,
    read_frame,
    send_frame,
)

logger = logging.getLogger("repro.server.worker")


def worker_main(spec: WorkerSpec) -> None:
    """Spawn entry point: serve one partition until the link closes."""
    asyncio.run(_serve_partition(spec))


async def _serve_partition(spec: WorkerSpec) -> None:
    core = RequestCore(
        spec.broker,
        shards=spec.shards,
        merge_interval=spec.merge_interval,
        max_workers=spec.max_workers,
        cache_capacity=spec.cache_capacity,
        finished_job_ttl=spec.finished_job_ttl,
        trace=spec.trace,
        trace_capacity=spec.trace_capacity,
        job_id_start=job_id_start(spec.index, spec.workers, spec.epoch),
        job_id_stride=spec.workers,
        metrics_edge=False,
    )
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", spec.dispatch_port
        )
    except OSError:
        logger.exception("worker %d could not dial the gateway", spec.index)
        core.close()
        return
    lock = asyncio.Lock()
    hello_at = clock.perf_counter()
    await send_frame(
        writer,
        lock,
        {
            "kind": "hello",
            "token": spec.token,
            "index": spec.index,
            "pid": os.getpid(),
            "epoch": spec.epoch,
            "perf": hello_at,
        },
    )
    ack, _ = await read_frame(reader)
    ack_at = clock.perf_counter()
    if ack.get("kind") != "hello-ack":
        raise RuntimeError(f"expected hello-ack, got {ack.get('kind')!r}")
    # NTP midpoint: the gateway read its clock between our two reads.
    offset = (hello_at + ack_at) / 2.0 - float(ack["gateway_perf"])

    inflight = asyncio.Semaphore(spec.max_inflight)
    tasks: dict[int, asyncio.Task] = {}

    async def serve_one(header: dict, body: bytes, received: float) -> None:
        request_id = header["id"]
        enqueued = min(float(header["enqueued"]) + offset, received)
        request = _Request(
            method=header["method"],
            path=header["path"],
            headers=dict(header.get("headers") or {}),
            body=body,
            peer=header.get("peer", ""),
            ingress=(enqueued, received),
        )
        try:
            _route, handler = core.route(request)
            async with inflight:
                try:
                    response = await handler(request)
                except _HttpError as exc:
                    response = _error_response(exc.envelope)
                except Exception as exc:  # noqa: BLE001 - wire boundary
                    response = _error_response(error_envelope_for(exc))
            if response.stream is None:
                await send_frame(
                    writer,
                    lock,
                    {
                        "kind": "response",
                        "id": request_id,
                        "status": response.status,
                        "content_type": response.content_type,
                        "headers": response.headers,
                        "replayable": response.replayable,
                    },
                    response.body,
                )
                return
            await send_frame(
                writer,
                lock,
                {
                    "kind": "stream-head",
                    "id": request_id,
                    "status": response.status,
                    "content_type": response.content_type,
                    "headers": response.headers,
                },
            )
            try:
                async for chunk in response.stream:
                    await send_frame(
                        writer, lock, {"kind": "chunk", "id": request_id}, chunk
                    )
            finally:
                # Cancelled relays must finalize the generator now —
                # batch streams mark their jobs retrieved in cleanup.
                await response.stream.aclose()
            await send_frame(writer, lock, {"kind": "stream-end", "id": request_id})
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            pass  # link is gone; the main loop is already exiting
        finally:
            tasks.pop(request_id, None)

    try:
        while True:
            try:
                header, body = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break  # gateway closed the link (shutdown or death)
            kind = header.get("kind")
            if kind == "request":
                received = clock.perf_counter()
                task = asyncio.create_task(serve_one(header, body, received))
                tasks[header["id"]] = task
            elif kind == "cancel":
                task = tasks.get(header.get("id"))
                if task is not None:
                    task.cancel()
            else:
                logger.warning("worker %d: unknown frame %r", spec.index, kind)
    finally:
        for task in list(tasks.values()):
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks.values(), return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, core.close)
