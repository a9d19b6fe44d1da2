"""The gateway ↔ worker dispatch protocol: framing, routing, specs.

The gateway process and its workers talk over local TCP sockets (one
connection per worker, workers dial in) using length-prefixed frames:

    +----------------+--------------+-----------------+------------+
    | header len !I  | body len !I  | header (JSON)   | body (raw) |
    +----------------+--------------+-----------------+------------+

The JSON header carries the frame ``kind`` plus per-kind metadata; the
body carries raw bytes (request bodies, response bodies, stream
chunks) so envelope payloads cross the boundary byte-identically —
never re-serialized, never re-encoded.  Frame kinds:

========================  ==================================================
gateway → worker
------------------------------------------------------------------------
``request``               {id, method, path, headers, peer, enqueued}
``cancel``                {id} — the HTTP client went away mid-stream
``hello-ack``             {gateway_perf} — completes the clock handshake
worker → gateway
------------------------------------------------------------------------
``hello``                 {token, index, pid, epoch, perf}
``response``              {id, status, content_type, headers, replayable}
``stream-head``           {id, status, content_type, headers}
``chunk``                 {id} + body — one response chunk, boundaries kept
``stream-end``            {id}
========================  ==================================================

Spans that cross the process boundary must ship durations, not
timestamps (see :mod:`repro.obs.clock`): ``perf_counter`` bases are
per-process.  The hello/hello-ack exchange therefore estimates the
clock offset NTP-style — the worker reads its clock at hello (``t0``)
and again at hello-ack receipt (``t1``); the ack carries the gateway's
clock read (``g``); the midpoint estimate ``(t0 + t1) / 2 - g``
converts the gateway's ``enqueued`` stamps into worker time, clamped
to never exceed the local receipt time.

Routing is consistent and content-keyed so warm engines never thrash
across workers: requests pinning providers route by the sorted
provider set, unpinned requests by the canonical request JSON (same
request → same engines → same worker), and job GETs route by the
arithmetic of strided job ids — worker ``i`` of ``N`` mints ids with
``start = epoch·N·1_000_000 + i + 1`` and ``stride = N``, so any id
maps back to its minter via ``(n - 1) % N`` with no shared state.
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.broker.service import BrokerService
from repro.errors import ValidationError

#: (header length, body length) prefix — network byte order.
FRAME_PREFIX = struct.Struct("!II")

#: Headers are small JSON dicts; anything bigger is a protocol error.
MAX_HEADER_BYTES = 1 << 20

#: Ids minted by worker ``i`` of ``N`` in epoch ``e`` start here — the
#: per-epoch block is wide enough that a respawned worker can never
#: re-mint an id issued by its predecessor.
EPOCH_BLOCK = 1_000_000

_JOB_ID = re.compile(r"\Ajob-(\d+)\Z")


def encode_frame(header: Mapping[str, Any], body: bytes = b"") -> bytes:
    """Serialize one frame to wire bytes."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return FRAME_PREFIX.pack(len(header_bytes), len(body)) + header_bytes + body


async def send_frame(
    writer: asyncio.StreamWriter,
    lock: asyncio.Lock,
    header: Mapping[str, Any],
    body: bytes = b"",
) -> None:
    """Write one frame atomically (frames from concurrent tasks never
    interleave) and drain for backpressure."""
    data = encode_frame(header, body)
    async with lock:
        writer.write(data)
        await writer.drain()


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, Any], bytes]:
    """Read one frame; raises ``asyncio.IncompleteReadError`` on EOF."""
    prefix = await reader.readexactly(FRAME_PREFIX.size)
    header_len, body_len = FRAME_PREFIX.unpack(prefix)
    if header_len > MAX_HEADER_BYTES:
        raise ValidationError(
            f"dispatch frame header of {header_len} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit"
        )
    header_bytes = await reader.readexactly(header_len)
    body = await reader.readexactly(body_len) if body_len else b""
    header = json.loads(header_bytes.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValidationError(
            f"dispatch frame header must be an object, got {header!r}"
        )
    return header, body


# -- partition routing -------------------------------------------------------

def partition_for(key: str, workers: int) -> int:
    """Consistent partition of a routing key (same CRC32 discipline as
    :func:`repro.server.ingest.shard_index`)."""
    return zlib.crc32(key.encode("utf-8")) % workers


def routing_key(body: bytes) -> str | None:
    """The content key an envelope request routes by, or ``None``.

    Requests pinning ``providers`` route by the sorted provider set —
    every request for a provider subset lands where those engines are
    warm.  Unpinned requests route by the canonical (sorted-keys)
    request JSON: identical requests share engines, so they must share
    a worker.  Unparseable bodies return ``None`` (any worker produces
    the identical 400).
    """
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    request = payload.get("request")
    if not isinstance(request, dict):
        return None
    providers = request.get("providers")
    if (
        isinstance(providers, list)
        and providers
        and all(isinstance(name, str) for name in providers)
    ):
        return ",".join(sorted(providers))
    return json.dumps(request, sort_keys=True)


def batch_routing_key(body: bytes) -> str | None:
    """A batch routes as a unit, keyed by its first envelope line."""
    for line in body.splitlines():
        if line.strip():
            return routing_key(line)
    return None


def job_partition(job_id: str, workers: int) -> int | None:
    """The worker that minted ``job_id``, or ``None`` if unparseable.

    Strided minting makes this pure arithmetic: worker ``i`` mints
    ``n ≡ i + 1 (mod N)`` in every epoch, so ``(n - 1) % N`` recovers
    the index with no id registry.
    """
    match = _JOB_ID.match(job_id)
    if match is None:
        return None
    return (int(match.group(1)) - 1) % workers


def job_id_start(index: int, workers: int, epoch: int) -> int:
    """First id worker ``index`` mints in ``epoch`` (stride = workers)."""
    return epoch * workers * EPOCH_BLOCK + index + 1


# -- worker configuration ----------------------------------------------------

@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, picklable for spawn.

    Carries the broker itself (providers, rate cards and the observed
    telemetry store pickle in well under 100 KB) plus the serving
    configuration the in-process server would have used — each worker
    builds the same :class:`~repro.server.core.RequestCore` the
    monolithic server runs, minus the edge (auth, rate limiting and
    idempotency stay at the gateway).
    """

    index: int
    workers: int
    epoch: int
    dispatch_port: int
    token: str
    broker: BrokerService
    shards: int = 4
    merge_interval: float | None = 0.5
    max_workers: int = 4
    cache_capacity: int = 16
    finished_job_ttl: float | None = None
    trace: bool = False
    trace_capacity: int = 256
    max_inflight: int = 32
