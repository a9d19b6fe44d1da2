"""Sharded telemetry ingestion: the broker's write path at scale.

The paper's broker continuously ingests cross-cloud telemetry to keep
its ``P̂/f̂/t̂`` database fresh (§II-C).  A single
:class:`~repro.broker.telemetry.TelemetryStore` serializes every
recording call against every estimate query; this module splits the
write path off the read path:

- incoming records are hash-partitioned by ``(provider,
  component_kind)`` across N shard workers, each owning a *private*
  store that nothing else touches;
- estimate queries keep reading the broker's serving store, which the
  pipeline refreshes by merging shard stores and publishing the
  result with a single atomic reference swap
  (:meth:`TelemetryStore.adopt`) — readers never block on ingestion and
  never observe a half-merged state.

Because the partition key equals the store's accumulation key, every
record for one component class flows through exactly one shard in
submission order, so a drained pipeline reproduces single-store
ingestion **bit-for-bit** (asserted in ``tests/test_server_ingest.py``).

Each shard is a daemon thread with its own command queue.  At a flush
it hands its private store to the router and starts a fresh one, so
the merge reads the shard's accumulation directly, with no copy.
"""

from __future__ import annotations

import json
import queue
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.broker.telemetry import TelemetryStore
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.errors import BrokerError, ValidationError

#: Wire kinds of one telemetry record line.
RECORD_KINDS = ("exposure", "failure", "repair", "failover")


# -- the record wire format -------------------------------------------------

@dataclass(frozen=True)
class ExposureRecord:
    """A fleet-exposure observation: N components watched for a span."""

    provider: str
    component_kind: str
    node_count: int
    horizon_minutes: float


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
    """Deserialize one telemetry record; unknown kinds are rejected."""
    kind = payload.get("kind")
    if kind == "exposure":
        allowed = {
            "kind", "provider", "component_kind", "node_count",
            "horizon_minutes",
        }
        _check_keys(payload, allowed)
        return ExposureRecord(
            provider=payload["provider"],
            component_kind=payload["component_kind"],
            node_count=int(payload["node_count"]),
            horizon_minutes=float(payload["horizon_minutes"]),
        )
    if kind in (member.value for member in ResourceEventKind):
        allowed = {
            "kind", "provider", "component_kind", "resource_id",
            "time_minutes", "duration_minutes",
        }
        _check_keys(payload, allowed)
        return ResourceEvent(
            time_minutes=float(payload.get("time_minutes", 0.0)),
            provider=payload["provider"],
            component_kind=payload["component_kind"],
            resource_id=payload.get("resource_id", "unknown"),
            kind=ResourceEventKind(kind),
            duration_minutes=float(payload.get("duration_minutes", 0.0)),
        )
    raise ValidationError(
        f"unknown telemetry record kind {kind!r}; valid: {list(RECORD_KINDS)}"
    )


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
            records.append(record_from_dict(json.loads(line)))
        except (json.JSONDecodeError, ValidationError, KeyError, TypeError) as exc:
            raise ValidationError(
                f"invalid telemetry record on line {number}: {exc}"
            ) from exc
    return records


def _check_keys(payload: Mapping[str, Any], allowed: set[str]) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValidationError(
            f"unknown telemetry record keys: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


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

    The fast path for routing raw JSONL without a full parse; returns
    None when the shape is unexpected (caller falls back to
    ``json.loads``).  Escapes never appear in provider/kind names we
    emit, and any line containing them simply takes the slow path.
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
    """Shard index for one raw JSONL line (fast extract, slow fallback)."""
    provider = _string_field(line, "provider")
    kind = _string_field(line, "component_kind")
    if provider is None or kind is None:
        try:
            payload = json.loads(line)
            provider = payload["provider"]
            kind = payload["component_kind"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(
                f"telemetry line {number} has no routable "
                f"provider/component_kind: {exc}"
            ) from exc
    return shard_index(provider, kind, num_shards)


# -- the shard worker loop --------------------------------------------------

def _apply_payload(store: TelemetryStore, payload: Mapping[str, Any]) -> None:
    """Apply one wire-form record dict to a store."""
    record = record_from_dict(payload)
    if isinstance(record, ExposureRecord):
        store.register_exposure(
            record.provider,
            record.component_kind,
            record.node_count,
            record.horizon_minutes,
        )
    else:
        store.ingest((record,))


def _shard_worker(in_queue: queue.Queue, out_queue: queue.Queue) -> None:
    """One shard's loop: drain commands, own a private store.

    Commands:

    - ``("lines", [str, ...])`` — parse and apply raw JSONL lines;
    - ``("payloads", [dict, ...])`` — apply pre-parsed record dicts;
    - ``("flush", seq)`` — emit ``(seq, ingested, rejected, store)``
      for everything since the last flush and start a fresh private
      store; the worker never touches the handed-over one again (the
      echoed sequence number lets the router discard-merge late
      replies from flushes that timed out);
    - ``("stop", None)`` — exit the loop.

    A malformed or invalid record is *counted* (rejected) rather than
    raised, so one bad line cannot kill a shard mid-stream; routers
    surface the count through flush replies and ``/metrics``.
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
        for item in payload:
            try:
                if command == "lines":
                    _apply_payload(store, json.loads(item))
                else:
                    _apply_payload(store, item)
                ingested += 1
            except (json.JSONDecodeError, ValidationError, KeyError, TypeError):
                rejected += 1


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

    ``submit``/``submit_jsonl`` enqueue records onto shard workers and
    return immediately; ``flush`` drains every shard and publishes the
    merged state into the serving store via the lock-free reference swap
    described in the module docstring.  Pass ``merge_interval`` to run
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
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards!r}"
            )
        if flush_timeout <= 0.0:
            raise ValidationError(
                f"flush_timeout must be > 0, got {flush_timeout!r}"
            )
        if merge_interval is not None and merge_interval <= 0.0:
            raise ValidationError(
                f"merge_interval must be > 0, got {merge_interval!r}"
            )
        self.serving_store = serving_store
        self.num_shards = num_shards
        self.flush_timeout = flush_timeout
        self._shards = [_Shard(index) for index in range(num_shards)]
        self._stats = [ShardStats() for _ in range(num_shards)]
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

    def submit(self, records: Iterable[TelemetryRecord]) -> int:
        """Route parsed records to their shards; returns records queued."""
        batches: dict[int, list[dict[str, Any]]] = {}
        for record in records:
            payload = record_to_dict(record)
            index = shard_index(
                payload["provider"], payload["component_kind"], self.num_shards
            )
            batches.setdefault(index, []).append(payload)
        return self._enqueue("payloads", batches)

    def submit_jsonl(self, text_or_lines: str | Sequence[str]) -> int:
        """Route raw JSONL lines; shard workers do the parsing.

        Routing reads only the ``provider``/``component_kind`` fields
        (cheap string scan, full parse as fallback); a line that cannot
        be routed at all raises :class:`ValidationError` with its line
        number, before anything is enqueued.
        """
        if isinstance(text_or_lines, str):
            lines = text_or_lines.splitlines()
        else:
            lines = list(text_or_lines)
        batches: dict[int, list[str]] = {}
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            index = _route_line(line, self.num_shards, number)
            batches.setdefault(index, []).append(line)
        return self._enqueue("lines", batches)

    def _enqueue(self, command: str, batches: Mapping[int, list]) -> int:
        with self._lock:
            if self._closed:
                raise ValidationError("ingestor is closed; no further records")
            for index, batch in batches.items():
                self._shards[index].in_queue.put((command, batch))
                self._stats[index].submitted += len(batch)
        return sum(len(batch) for batch in batches.values())

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
        import logging

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
