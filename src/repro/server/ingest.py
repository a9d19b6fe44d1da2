"""Sharded telemetry ingestion: the broker's write path at scale.

The paper's broker continuously ingests cross-cloud telemetry to keep
its ``P̂/f̂/t̂`` database fresh (§II-C).  A single
:class:`~repro.broker.telemetry.TelemetryStore` serializes every
recording call against every estimate query; this module splits the
write path off the read path:

- the router — the thread that calls ``submit_jsonl`` — decodes each
  JSONL line exactly once into a typed record and hash-partitions the
  records by ``(provider, component_kind)`` across N shard workers;
- each shard applies typed records to a *private* store that nothing
  else touches (shards never parse JSON);
- estimate queries keep reading the broker's serving store, which the
  pipeline refreshes by merging shard stores and publishing the
  result with a single atomic reference swap
  (:meth:`TelemetryStore.adopt`) — readers never block on ingestion and
  never observe a half-merged state.

Records are routed by the decoded values they record, and the
partition key equals the store's accumulation key, so every record for
one component class flows through exactly one shard in submission
order: a drained pipeline reproduces single-store ingestion
**bit-for-bit** (asserted in ``tests/test_server_ingest.py``).

A line that does not decode into a valid record is never queued.  When
its raw text still names a provider and component kind it is counted
as rejected on that pair's shard at the next flush; when it names none,
the whole submission fails with a :class:`ValidationError` that carries
the line number, before anything is enqueued.

Each shard is a daemon thread with its own command queue.  At a flush
it hands its private store to the router and starts a fresh one, so
the merge reads the shard's accumulation directly, with no copy.
"""

from __future__ import annotations

import json
import logging
import math
import queue
import threading
import zlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.broker.telemetry import TelemetryStore, exposure_minutes
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.errors import BrokerError, ValidationError

#: Wire kinds of one telemetry record line.
RECORD_KINDS = ("exposure", "failure", "repair", "failover")

_EXPOSURE_KEYS = frozenset(
    {"kind", "provider", "component_kind", "node_count", "horizon_minutes"}
)
_EVENT_KEYS = frozenset(
    {
        "kind", "provider", "component_kind", "resource_id",
        "time_minutes", "duration_minutes",
    }
)
_EVENT_KINDS = {member.value: member for member in ResourceEventKind}

#: What decoding and building one malformed line can raise:
#: ``JSONDecodeError`` and ``ValidationError`` (a numeric field of the
#: wrong JSON type among them) are ``ValueError``s, deep nesting raises
#: ``RecursionError`` and an integer beyond the float range
#: ``OverflowError``; a missing field is a ``KeyError`` and a JSON
#: value of the wrong type elsewhere a ``TypeError``.
_BAD_LINE_ERRORS = (ValueError, TypeError, KeyError, OverflowError, RecursionError)

#: Bound on the router's memoized ``(provider, component_kind)`` →
#: shard map; a client inventing keys only forces recomputation.
_SHARD_MEMO_CAP = 4096


# -- the record wire format -------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExposureRecord:
    """A fleet-exposure observation: N components watched for a span."""

    provider: str
    component_kind: str
    node_count: int
    horizon_minutes: float

    def __post_init__(self) -> None:
        exposure_minutes(self.node_count, self.horizon_minutes)


#: What the pipeline routes: exposure registrations or resource events.
TelemetryRecord = ExposureRecord | ResourceEvent


def record_to_dict(record: TelemetryRecord) -> dict[str, Any]:
    """Serialize one telemetry record to a JSON-safe dict."""
    if isinstance(record, ExposureRecord):
        return {
            "kind": "exposure",
            "provider": record.provider,
            "component_kind": record.component_kind,
            "node_count": record.node_count,
            "horizon_minutes": record.horizon_minutes,
        }
    if isinstance(record, ResourceEvent):
        return {
            "kind": record.kind.value,
            "provider": record.provider,
            "component_kind": record.component_kind,
            "resource_id": record.resource_id,
            "time_minutes": record.time_minutes,
            "duration_minutes": record.duration_minutes,
        }
    raise ValidationError(
        f"cannot serialize telemetry record of type {type(record).__name__}"
    )


def record_from_dict(payload: Mapping[str, Any]) -> TelemetryRecord:
    """Deserialize one telemetry record; an invalid one raises.

    Unknown kinds and keys, non-string ``provider``/``component_kind``,
    numeric fields of the wrong JSON type (``node_count`` must be an
    integer; ``horizon_minutes``, ``time_minutes`` and
    ``duration_minutes`` numbers — never bools or strings) and
    out-of-range or non-finite numbers raise :class:`ValidationError`;
    a missing field raises ``KeyError`` and an integer too large for a
    float ``OverflowError``.
    """
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise ValidationError(
            "a telemetry record must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == "exposure":
        _check_keys(payload, _EXPOSURE_KEYS)
        provider, component_kind = _component(payload)
        # ``type(...) is``, never ``isinstance``: ``bool`` is an ``int``
        # subclass, and ``true`` must not pass for 1.
        node_count = payload["node_count"]
        if type(node_count) is not int:
            raise _wrong_type("node_count", "an integer", node_count)
        horizon = payload["horizon_minutes"]
        if type(horizon) is not float:
            horizon = _int_as_float("horizon_minutes", horizon)
        return ExposureRecord(provider, component_kind, node_count, horizon)
    event_kind = _EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if event_kind is not None:
        _check_keys(payload, _EVENT_KEYS)
        provider, component_kind = _component(payload)
        time_minutes = payload.get("time_minutes", 0.0)
        if type(time_minutes) is not float:
            time_minutes = _int_as_float("time_minutes", time_minutes)
        duration = payload.get("duration_minutes", 0.0)
        if type(duration) is not float:
            duration = _int_as_float("duration_minutes", duration)
        return ResourceEvent(
            time_minutes,
            provider,
            component_kind,
            payload.get("resource_id", "unknown"),
            event_kind,
            duration,
        )
    raise ValidationError(
        f"unknown telemetry record kind {kind!r}; valid: {list(RECORD_KINDS)}"
    )


def _component(payload: Mapping[str, Any]) -> tuple[str, str]:
    """A record's ``(provider, component_kind)``: the store's key."""
    provider = payload["provider"]
    component_kind = payload["component_kind"]
    if isinstance(provider, str) and isinstance(component_kind, str):
        return provider, component_kind
    raise ValidationError(
        "telemetry record provider and component_kind must be strings, "
        f"got {provider!r} and {component_kind!r}"
    )


def _int_as_float(field: str, value: Any) -> float:
    """A JSON integer as a float; any other non-float value raises."""
    if type(value) is not int:
        raise _wrong_type(field, "a number", value)
    return float(value)


def _wrong_type(field: str, expected: str, value: Any) -> ValidationError:
    return ValidationError(
        f"telemetry record {field} must be {expected}, "
        f"got {type(value).__name__} {value!r}"
    )


def _check_keys(payload: Mapping[str, Any], allowed: frozenset[str]) -> None:
    if payload.keys() <= allowed:
        return
    raise ValidationError(
        f"unknown telemetry record keys: {sorted(set(payload) - allowed)}; "
        f"allowed: {sorted(allowed)}"
    )


_skip_whitespace = json.decoder.WHITESPACE.match
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> Any:
    """``json.loads(line)`` as one ``raw_decode``.

    Accepts exactly the lines ``json.loads`` accepts, with the same
    value, and raises the same ``JSONDecodeError`` otherwise (the steps
    are those of ``JSONDecoder.decode``, minus its per-call lookups).
    """
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
        )
    value, end = _raw_decode(line, _skip_whitespace(line, 0).end())
    if end != len(line):
        end = _skip_whitespace(line, end).end()
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    return value


def _record_from_line(line: str) -> TelemetryRecord:
    """Decode and build one JSONL record (raises as ``record_from_dict``).

    The one line decoder: the server's router and
    :func:`records_from_jsonl` both use it, so they accept the same
    lines.
    """
    return record_from_dict(_decode_line(line))


def record_to_json(record: TelemetryRecord) -> str:
    """One compact JSONL line for a record."""
    return json.dumps(record_to_dict(record), sort_keys=True)


def records_to_jsonl(records: Iterable[TelemetryRecord]) -> str:
    """A whole trace as JSON lines (one record per line)."""
    return "\n".join(record_to_json(record) for record in records) + "\n"


def records_from_jsonl(text: str) -> list[TelemetryRecord]:
    """Parse a JSONL trace; errors carry the 1-based line number."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(_record_from_line(line))
        except _BAD_LINE_ERRORS as exc:
            raise ValidationError(
                f"invalid telemetry record on line {number}: {exc}"
            ) from exc
    return records


# -- partitioning -----------------------------------------------------------

def shard_index(provider: str, component_kind: str, num_shards: int) -> int:
    """Stable hash partition for one component class.

    CRC32 rather than ``hash()`` so the mapping is identical across
    processes and interpreter runs (``PYTHONHASHSEED`` does not leak
    into shard assignment).
    """
    key = f"{provider}\x1f{component_kind}".encode("utf-8")
    return zlib.crc32(key) % num_shards


def _string_field(line: str, name: str) -> str | None:
    """Cheaply extract ``"name": "value"`` from a compact JSON line.

    Reads the first occurrence only and returns None when the shape is
    unexpected or the value holds an escape.
    """
    needle = f'"{name}"'
    start = line.find(needle)
    if start < 0:
        return None
    cursor = start + len(needle)
    while cursor < len(line) and line[cursor] in ": \t":
        cursor += 1
    if cursor >= len(line) or line[cursor] != '"':
        return None
    end = line.find('"', cursor + 1)
    if end < 0 or "\\" in line[cursor + 1:end]:
        return None
    return line[cursor + 1:end]


def _route_line(line: str, num_shards: int, number: int) -> int:
    """The shard that counts a rejected raw line, or ValidationError.

    Only lines that failed to decode into a record come here: a string
    scan for ``provider``/``component_kind`` first, a full parse as the
    fallback.  A line that names neither cannot be attributed to any
    shard and fails its whole submission.
    """
    provider = _string_field(line, "provider")
    kind = _string_field(line, "component_kind")
    if provider is None or kind is None:
        try:
            payload = json.loads(line)
            provider = payload["provider"]
            kind = payload["component_kind"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValidationError(
                f"telemetry line {number} has no routable "
                f"provider/component_kind: {exc}"
            ) from exc
    return shard_index(provider, kind, num_shards)


# -- the shard worker loop --------------------------------------------------

_FAILURE = ResourceEventKind.FAILURE
_REPAIR = ResourceEventKind.REPAIR


def _apply_record(store: TelemetryStore, record: TelemetryRecord) -> None:
    """Record one typed record in a store."""
    if record.__class__ is ExposureRecord:
        store.register_exposure(
            record.provider,
            record.component_kind,
            record.node_count,
            record.horizon_minutes,
        )
    elif record.kind is _FAILURE:
        store.record_failure(record.provider, record.component_kind)
    elif record.kind is _REPAIR:
        store.record_outage(
            record.provider, record.component_kind, record.duration_minutes
        )
    else:
        store.record_failover(
            record.provider, record.component_kind, record.duration_minutes
        )


def _shard_worker(in_queue: queue.Queue, out_queue: queue.Queue) -> None:
    """One shard's loop: drain commands, own a private store.

    Commands:

    - ``("records", [record, ...])`` — apply typed records in order;
    - ``("flush", seq)`` — emit ``(seq, ingested, rejected, store)``
      for everything since the last flush and start a fresh private
      store; the worker never touches the handed-over one again (the
      echoed sequence number lets the router discard-merge late
      replies from flushes that timed out);
    - ``("stop", None)`` — exit the loop.

    A record the store refuses, for whatever reason, is *counted*
    (rejected) and logged rather than raised, so one bad record cannot
    kill a shard mid-stream; routers surface the count through flush
    replies and ``/metrics``.
    """
    store = TelemetryStore()
    ingested = 0
    rejected = 0
    while True:
        command, payload = in_queue.get()
        if command == "stop":
            break
        if command == "flush":
            out_queue.put((payload, ingested, rejected, store))
            store = TelemetryStore()
            ingested = 0
            rejected = 0
            continue
        for record in payload:
            try:
                _apply_record(store, record)
            except Exception:  # noqa: BLE001 - counted, never fatal
                # Records arrive validated, so this is a defect: keep
                # its traceback, and keep the shard alive.
                rejected += 1
                logging.getLogger("repro.server").exception(
                    "ingest shard could not apply %r", record
                )
            else:
                ingested += 1


class _Shard:
    """A shard worker hosted on a daemon thread."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.in_queue: queue.Queue = queue.Queue()
        self.out_queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=_shard_worker,
            args=(self.in_queue, self.out_queue),
            name=f"ingest-shard-{index}",
            daemon=True,
        )
        self._thread.start()

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)


@dataclass
class ShardStats:
    """Counters for one shard, as of the last flush."""

    submitted: int = 0
    ingested: int = 0
    rejected: int = 0


class ShardedIngestor:
    """Hash-partitioned telemetry ingestion in front of a serving store.

    ``submit``/``submit_jsonl`` route typed records onto shard workers
    and return once they are queued; ``flush`` drains every shard and
    publishes the merged state into the serving store via the lock-free
    reference swap described in the module docstring.  Pass ``merge_interval`` to run
    that merge on a timer (the server does), or call :meth:`flush`
    explicitly for deterministic tests.

    The serving store must not be written to directly while the
    ingestor is open — route all recording through the pipeline (or do
    it before construction); reads are always safe.
    """

    def __init__(
        self,
        serving_store: TelemetryStore,
        num_shards: int = 4,
        *,
        merge_interval: float | None = None,
        flush_timeout: float = 60.0,
    ) -> None:
        self.check_settings(
            num_shards,
            merge_interval=merge_interval,
            flush_timeout=flush_timeout,
        )
        self.serving_store = serving_store
        self.num_shards = num_shards
        self.flush_timeout = flush_timeout
        self._shards = [_Shard(index) for index in range(num_shards)]
        self._stats = [ShardStats() for _ in range(num_shards)]
        #: Lines the router rejected per shard, counted at the next flush.
        self._unflushed_rejects = [0] * num_shards
        self._shard_of: dict[tuple[str, str], int] = {}
        self._merges = 0
        self._flush_seq = 0
        self._closed = False
        self._lock = threading.Lock()
        self._stop_timer = threading.Event()
        self._timer: threading.Thread | None = None
        if merge_interval is not None:
            self._timer = threading.Thread(
                target=self._merge_periodically,
                args=(merge_interval,),
                name="ingest-merger",
                daemon=True,
            )
            self._timer.start()

    @staticmethod
    def check_settings(
        num_shards: int = 4,
        *,
        merge_interval: float | None = None,
        flush_timeout: float = 60.0,
    ) -> None:
        """Raise what constructing an ingestor with these settings would.

        Starts no thread, so a caller that hands the settings to
        another process can reject them first.
        """
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards!r}"
            )
        if not math.isfinite(flush_timeout) or flush_timeout <= 0.0:
            raise ValidationError(
                f"flush_timeout must be finite and > 0, got {flush_timeout!r}"
            )
        if merge_interval is not None and (
            not math.isfinite(merge_interval) or merge_interval <= 0.0
        ):
            raise ValidationError(
                "merge_interval must be finite and > 0, got "
                f"{merge_interval!r}"
            )

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ShardedIngestor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Reject new submissions, final-flush, stop every worker.

        Idempotent.  ``_closed`` flips *before* the final drain so no
        submission can be acknowledged after it — an ack would otherwise
        race the drain and its records would die unflushed in a
        stopping worker.  Workers are told to stop even when the final
        flush fails (e.g. a dead shard timing out), so close never
        strands the healthy ones.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop_timer.set()
        if self._timer is not None:
            self._timer.join(timeout=10.0)
        try:
            with self._lock:
                self._drain_locked()
        finally:
            with self._lock:
                for shard in self._shards:
                    shard.in_queue.put(("stop", None))
            for shard in self._shards:
                shard.join(timeout=10.0)

    # -- submission --------------------------------------------------------

    def _shard_for(self, provider: str, component_kind: str) -> int:
        """The shard of one component class, memoized per ingestor."""
        key = (provider, component_kind)
        index = self._shard_of.get(key)
        if index is None:
            if len(self._shard_of) >= _SHARD_MEMO_CAP:
                self._shard_of.clear()
            index = shard_index(provider, component_kind, self.num_shards)
            self._shard_of[key] = index
        return index

    def submit(self, records: Iterable[TelemetryRecord]) -> int:
        """Route typed records to their shards; returns records queued."""
        batches: dict[int, list[TelemetryRecord]] = {}
        for record in records:
            if not isinstance(record, (ExposureRecord, ResourceEvent)):
                raise ValidationError(
                    "cannot submit telemetry record of type "
                    f"{type(record).__name__}"
                )
            index = self._shard_for(record.provider, record.component_kind)
            batches.setdefault(index, []).append(record)
        return self._enqueue(batches, {})

    def submit_jsonl(self, text_or_lines: str | Sequence[str]) -> int:
        """Decode raw JSONL lines and route the records; returns lines routed.

        Each non-blank line is decoded once, on the calling thread, and
        routed by the provider and component kind it records.  A line
        that does not decode into a valid record is counted as rejected
        on the shard :func:`_route_line` names, at the next flush; a
        line that cannot be routed at all raises
        :class:`ValidationError` with its line number, before anything
        is enqueued.
        """
        if isinstance(text_or_lines, str):
            text_or_lines = text_or_lines.splitlines()
        batches: dict[int, list[TelemetryRecord]] = {}
        rejects: dict[int, int] = {}
        for number, line in enumerate(text_or_lines, start=1):
            if not line.strip():
                continue
            try:
                record = _record_from_line(line)
            except _BAD_LINE_ERRORS:
                index = _route_line(line, self.num_shards, number)
                rejects[index] = rejects.get(index, 0) + 1
                continue
            index = self._shard_for(record.provider, record.component_kind)
            batches.setdefault(index, []).append(record)
        return self._enqueue(batches, rejects)

    def _enqueue(
        self,
        batches: Mapping[int, list[TelemetryRecord]],
        rejects: Mapping[int, int],
    ) -> int:
        """Queue record batches; count rejected lines for the next flush."""
        with self._lock:
            if self._closed:
                raise ValidationError("ingestor is closed; no further records")
            for index, batch in batches.items():
                self._shards[index].in_queue.put(("records", batch))
                self._stats[index].submitted += len(batch)
            for index, count in rejects.items():
                self._stats[index].submitted += count
                self._unflushed_rejects[index] += count
        return sum(len(batch) for batch in batches.values()) + sum(
            rejects.values()
        )

    # -- merging -----------------------------------------------------------

    def flush(self) -> int:
        """Drain every shard and publish the merged serving store.

        Blocks until all records submitted before this call are applied
        (the flush command queues FIFO behind them).  The merge runs on
        the caller's thread against a private copy, then lands in one
        atomic swap; estimate readers never wait.  Returns the number
        of records merged in.

        A shard that does not answer within ``flush_timeout`` seconds
        (a crashed worker, or a worker more than a timeout behind on
        its backlog) raises :class:`BrokerError` instead of wedging the
        pipeline — and, transitively, server shutdown — forever.
        """
        with self._lock:
            if self._closed:
                return 0
            return self._drain_locked()

    def _drain_locked(self) -> int:
        """The flush body; the caller holds ``_lock``."""
        self._flush_seq += 1
        seq = self._flush_seq
        for shard in self._shards:
            shard.in_queue.put(("flush", seq))
        for index, stats in enumerate(self._stats):
            stats.rejected += self._unflushed_rejects[index]
            self._unflushed_rejects[index] = 0
        deltas: list[TelemetryStore] = []
        total = 0
        silent: list[int] = []
        for shard, stats in zip(self._shards, self._stats):
            answered = False
            while not answered:
                try:
                    reply_seq, ingested, rejected, delta = (
                        shard.out_queue.get(timeout=self.flush_timeout)
                    )
                except queue.Empty:
                    silent.append(shard.index)
                    break
                stats.ingested += ingested
                stats.rejected += rejected
                total += ingested
                if delta.observed_components():
                    deltas.append(delta)
                # A stale sequence is a late reply from a flush that
                # timed out: its delta is kept above (never lost), and
                # we keep waiting for the current answer.
                answered = reply_seq == seq
        if deltas:
            # Publish what the responsive shards handed over even when
            # one timed out — their private stores already reset, so
            # skipping the adopt would drop their deltas on the floor.
            # An all-empty drain (the idle periodic-merge case) skips
            # the serving-store copy entirely.
            merged_store = self.serving_store.copy()
            for delta in deltas:
                merged_store.merge(delta)
            self.serving_store.adopt(merged_store)
            self._merges += 1
        if silent:
            raise BrokerError(
                f"ingest shard(s) {silent} did not answer a flush "
                f"within {self.flush_timeout}s; workers may have died "
                "or are too far behind (responsive shards were merged)"
            )
        return total

    def _merge_periodically(self, interval: float) -> None:
        while not self._stop_timer.wait(interval):
            try:
                self.flush()
            except BrokerError as exc:
                # A dead shard: keep the timer alive so healthy shards
                # still merge; the condition also shows in /metrics.
                logging.getLogger("repro.server").warning(
                    "periodic telemetry merge failed: %s", exc
                )

    # -- observability -----------------------------------------------------

    def pending(self) -> tuple[int, ...]:
        """Approximate queued-command depth per shard."""
        return tuple(shard.in_queue.qsize() for shard in self._shards)

    def shard_stats(self) -> tuple[ShardStats, ...]:
        """Per-shard counters (records *ingested* lag until a flush)."""
        with self._lock:
            return tuple(
                ShardStats(s.submitted, s.ingested, s.rejected)
                for s in self._stats
            )

    @property
    def merges(self) -> int:
        """How many merges have been published."""
        return self._merges

    def metrics(self) -> dict[str, object]:
        """JSON-safe counters, shaped for the ``/metrics`` exporter."""
        stats = self.shard_stats()
        return {
            "num_shards": self.num_shards,
            "merges": self.merges,
            "shards": [
                {
                    "shard": index,
                    "submitted": entry.submitted,
                    "ingested": entry.ingested,
                    "rejected": entry.rejected,
                    "pending": depth,
                }
                for index, (entry, depth) in enumerate(
                    zip(stats, self.pending())
                )
            ],
        }
