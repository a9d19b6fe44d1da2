"""Prometheus text-format metrics for the broker server.

A deliberately small, stdlib-only instrumentation layer: counters,
gauges and histograms registered on a :class:`MetricsRegistry`, rendered
in the Prometheus text exposition format (version 0.0.4) for the
server's ``/metrics`` endpoint.  Values can be stored (HTTP request
counters, latency observations) or read at scrape time from a callback
(engine-cache stats via :meth:`BrokerSession.metrics`, per-shard ingest
counters via :meth:`ShardedIngestor.metrics`) — scrape-time callbacks
keep the hot paths free of double bookkeeping.

:func:`parse_prometheus_text` is the matching reader, used by the tests
and the round-trip example to assert on exported samples.
"""

from __future__ import annotations

import gc
import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import ValidationError

#: Latency buckets (seconds) tuned for millisecond-scale request serving.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Finer low-end buckets for per-phase span durations (spans like
#: ``parse`` and ``cache_lookup`` sit well under a millisecond).
SPAN_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: A rendered sample: (metric name, sorted label pairs) -> value.
SampleKey = tuple[str, tuple[tuple[str, str], ...]]


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in labels.items()
    )
    return "{" + body + "}"


class _Metric:
    """Shared machinery: a named family of labelled sample values."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]):
        if not _METRIC_NAME.match(name):
            raise ValidationError(f"invalid metric name: {name!r}")
        for labelname in labelnames:
            if not _LABEL_NAME.match(labelname):
                raise ValidationError(
                    f"metric {name!r} has an invalid label name: {labelname!r}"
                )
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}
        self._callbacks: dict[tuple[str, ...], Callable[[], float]] = {}

    def _key(self, labelvalues: tuple[str, ...]) -> tuple[str, ...]:
        if len(labelvalues) != len(self.labelnames):
            raise ValidationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )
        return tuple(str(value) for value in labelvalues)

    def set_function(self, fn: Callable[[], float], *labelvalues: str) -> None:
        """Read this sample from ``fn()`` at scrape time."""
        with self._lock:
            self._callbacks[self._key(labelvalues)] = fn

    def samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        with self._lock:
            stored = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, value in stored.items():
            yield self.name, dict(zip(self.labelnames, key)), value
        for key, fn in callbacks.items():
            yield self.name, dict(zip(self.labelnames, key)), float(fn())

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for name, labels, value in self.samples():
            lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
        return "\n".join(lines)


class Counter(_Metric):
    """A monotonically increasing sample (or family of them)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, *, labels: Sequence[str] = ()) -> None:
        if amount < 0:
            raise ValidationError(f"counters only go up, got {amount!r}")
        key = self._key(tuple(labels))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A sample that can go up and down (or be read from a callback)."""

    type_name = "gauge"

    def set(self, value: float, *, labels: Sequence[str] = ()) -> None:
        key = self._key(tuple(labels))
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket latency histogram, Prometheus-style.

    Exports ``<name>_bucket{le=...}`` (cumulative counts),
    ``<name>_sum`` and ``<name>_count`` per label set.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        if "le" in self.labelnames:
            raise ValidationError(
                f"histogram {name!r} may not use the reserved label 'le'"
            )
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValidationError(
                f"histogram buckets must be sorted and non-empty: {buckets!r}"
            )
        self.buckets = tuple(buckets)
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}

    def observe(self, value: float, *, labels: Sequence[str] = ()) -> None:
        key = self._key(tuple(labels))
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            index = bisect_left(self.buckets, value)
            if index < len(counts):
                counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        with self._lock:
            snapshot = {
                key: (list(counts), self._sums[key], self._totals[key])
                for key, counts in self._counts.items()
            }
        for key, (counts, total_sum, total) in snapshot.items():
            base = dict(zip(self.labelnames, key))
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                yield (
                    f"{self.name}_bucket",
                    {**base, "le": _format_value(bound)},
                    float(cumulative),
                )
            yield f"{self.name}_bucket", {**base, "le": "+Inf"}, float(total)
            yield f"{self.name}_sum", dict(base), total_sum
            yield f"{self.name}_count", dict(base), float(total)


class MetricsRegistry:
    """An ordered collection of metrics with one ``render()`` output."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValidationError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help_text, labelnames, buckets))

    def render(self) -> str:
        """The full exposition document (trailing newline included)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return "\n".join(metric.render() for metric in metrics) + "\n"


def _parse_sample_line(line: str) -> tuple[SampleKey, float]:
    """Parse one exposition sample line into its key and value."""
    name_part, _, value_part = line.rpartition(" ")
    if not name_part:
        raise ValidationError(f"unparseable metrics line: {line!r}")
    labels: dict[str, str] = {}
    if "{" in name_part:
        name, _, label_body = name_part.partition("{")
        label_body = label_body.rstrip("}")
        for pair in _split_label_pairs(label_body):
            label_name, _, label_value = pair.partition("=")
            # Exactly one quote per side: str.strip would also eat
            # an escaped quote at the end of the value.
            if len(label_value) >= 2 and label_value[0] == label_value[-1] == '"':
                label_value = label_value[1:-1]
            labels[label_name] = _unescape(label_value)
    else:
        name = name_part
    if value_part == "+Inf":
        value = float("inf")
    elif value_part == "-Inf":
        value = float("-inf")
    elif value_part == "NaN":
        value = float("nan")
    else:
        value = float(value_part)
    return (name, tuple(sorted(labels.items()))), value


def parse_prometheus_text(text: str) -> dict[SampleKey, float]:
    """Parse an exposition document back into ``{(name, labels): value}``.

    Supports exactly what :meth:`MetricsRegistry.render` emits (which is
    valid Prometheus text format); used by tests to assert on scraped
    samples without regex fishing.
    """
    samples: dict[SampleKey, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _parse_sample_line(line)
        samples[key] = value
    return samples


def merge_expositions(texts: Sequence[str]) -> str:
    """Merge worker expositions into one fleet-wide document.

    Walks the first document line by line — HELP/TYPE comments and
    sample ordering are preserved verbatim — re-emitting each sample
    with its value summed across the matching samples of the remaining
    documents.  Samples that exist only in later documents (e.g. a
    label set one worker never touched) are appended at the end in
    sorted order, so no observation is dropped.  Counters and histogram
    buckets sum meaningfully; gauges sum to fleet-wide totals (e.g.
    ``repro_engines_cached`` becomes engines held across all workers).
    """
    texts = [text for text in texts if text]
    if not texts:
        return ""
    if len(texts) == 1:
        return texts[0]
    leftovers: dict[SampleKey, float] = {}
    for other in texts[1:]:
        for key, value in parse_prometheus_text(other).items():
            leftovers[key] = leftovers.get(key, 0.0) + value
    out: list[str] = []
    for line in texts[0].splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            out.append(line)
            continue
        key, value = _parse_sample_line(stripped)
        value += leftovers.pop(key, 0.0)
        (name, labelpairs) = key
        out.append(f"{name}{_render_labels(dict(labelpairs))} {_format_value(value)}")
    for (name, labelpairs), value in sorted(leftovers.items()):
        out.append(f"{name}{_render_labels(dict(labelpairs))} {_format_value(value)}")
    return "\n".join(out) + "\n"


def _unescape(value: str) -> str:
    """Invert :func:`_escape` with a left-to-right scan.

    Sequential ``str.replace`` calls mis-parse values whose escaped
    backslashes precede other escapes (``\\\\n`` is a backslash + ``n``,
    not a newline).
    """
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _split_label_pairs(body: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs = []
    current = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs


class EdgeMetricsMixin:
    """The HTTP-edge metric families and their observation hooks.

    Factored out so the families are defined exactly once but can live
    at either tier: :class:`ServerMetrics` registers them when it runs
    at the edge (the in-process server), while the gateway's own metric
    set (:class:`repro.server.gateway.GatewayMetrics`) registers them at
    the edge of a worker fleet — where auth, rate limiting and replay
    actually execute — keeping worker expositions free of duplicate
    edge families.
    """

    def _register_edge_metrics(
        self, reg: MetricsRegistry, idempotency_store=None, rate_limiter=None
    ) -> None:
        self.http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "status"),
        )
        self.http_latency = reg.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency, by route.",
            ("route",),
        )
        self.rate_limited = reg.counter(
            "repro_rate_limited_total",
            "Requests rejected with 429 by the token-bucket rate "
            "limiter, by route.",
            ("route",),
        )
        self.auth_failures = reg.counter(
            "repro_auth_failures_total",
            "Requests rejected by bearer-token auth, by status "
            "(401 = no/malformed credential, 403 = wrong token).",
            ("status",),
        )
        self.idempotent_replays = reg.counter(
            "repro_idempotent_replays_total",
            "Requests answered from the idempotency replay table "
            "without re-execution, by route.",
            ("route",),
        )
        if idempotency_store is not None:
            self.idempotency_entries = reg.gauge(
                "repro_idempotency_entries",
                "Completed responses held in the idempotency replay "
                "table.",
            )
            self.idempotency_entries.set_function(
                lambda: float(len(idempotency_store))
            )
        if rate_limiter is not None:
            self.rate_limit_principals = reg.gauge(
                "repro_rate_limit_principals",
                "Distinct principals with live token buckets.",
            )
            self.rate_limit_principals.set_function(
                lambda: float(len(rate_limiter))
            )

    def observe_request(self, route: str, status: int, seconds: float) -> None:
        """Record one served HTTP request."""
        self.http_requests.inc(labels=(route, str(status)))
        self.http_latency.observe(seconds, labels=(route,))

    def observe_rate_limited(self, route: str) -> None:
        """Record one 429 rejection."""
        self.rate_limited.inc(labels=(route,))

    def observe_auth_failure(self, status: int) -> None:
        """Record one 401/403 rejection."""
        self.auth_failures.inc(labels=(str(status),))

    def observe_replay(self, route: str) -> None:
        """Record one idempotent replay served from the table."""
        self.idempotent_replays.inc(labels=(route,))


class ServerMetrics(EdgeMetricsMixin):
    """The broker server's metric set, bound to its live components.

    Engine-cache and job-table samples read
    :meth:`~repro.broker.api.BrokerSession.metrics` at scrape time;
    per-shard ingest samples read
    :meth:`~repro.server.ingest.ShardedIngestor.metrics`.  HTTP request
    counters and latency histograms are recorded by the transport via
    :meth:`observe_request`.

    One scrape takes exactly one :meth:`BrokerSession.metrics` call and
    one :meth:`ShardedIngestor.metrics` call — :meth:`render` snapshots
    both up front and the per-sample callbacks read from the snapshot,
    so scrape cost stays flat however many samples a subsystem exports.

    ``repro_gc_collections_total`` reads the process's cyclic-collector
    counts from :func:`gc.get_stats` once per scrape, so a pause the
    collector causes is visible even though it lands in no span.

    When the server traces (``tracer`` given),
    ``repro_span_duration_seconds`` observes every recorded span's
    duration, labelled by phase, through the tracer's observer hook.

    ``edge=False`` (used by gateway worker processes) skips the
    HTTP-edge families entirely: auth, rate limiting and idempotency
    run once at the gateway, so only the gateway exports them and the
    merged fleet exposition never double-counts an edge event.
    """

    def __init__(
        self,
        session,
        ingestor=None,
        tracer=None,
        idempotency_store=None,
        rate_limiter=None,
        edge: bool = True,
    ) -> None:
        self._session = session
        self._ingestor = ingestor
        self._session_snapshot: dict = {}
        self._ingest_snapshot: dict = {}
        self._gc_snapshot: list[dict] = []
        self.registry = MetricsRegistry()
        reg = self.registry

        def cache_stat(field: str) -> Callable[[], float]:
            return lambda: self._session_snapshot["engine_cache"][field]

        self.cache_hits = reg.counter(
            "repro_engine_cache_hits_total", "Engine cache lookup hits."
        )
        self.cache_hits.set_function(cache_stat("hits"))
        self.cache_misses = reg.counter(
            "repro_engine_cache_misses_total", "Engine cache lookup misses."
        )
        self.cache_misses.set_function(cache_stat("misses"))
        self.cache_evictions = reg.counter(
            "repro_engine_cache_evictions_total", "Engines evicted (LRU)."
        )
        self.cache_evictions.set_function(cache_stat("evictions"))
        self.cache_replays = reg.counter(
            "repro_engine_replays_total",
            "Engine cache hits answered from the replay memo (no search).",
        )
        self.cache_replays.set_function(cache_stat("replays"))
        self.recommend_inline = reg.counter(
            "repro_recommend_inline_total",
            "Recommends answered from the replay memo on the event-loop "
            "thread (no executor hop).",
        )
        self.recommend_inline.inc(0.0)  # exported from the first scrape
        self.engines_cached = reg.gauge(
            "repro_engines_cached", "Engines currently held by the cache."
        )
        self.engines_cached.set_function(
            lambda: self._session_snapshot["engines_cached"]
        )
        self.models_cached = reg.gauge(
            "repro_models_cached",
            "Contract-free models held by the engine cache.",
        )
        self.models_cached.set_function(
            lambda: self._session_snapshot["models_cached"]
        )
        self.model_rows = reg.gauge(
            "repro_model_rows",
            "Candidate rows across the cached models' tables.",
        )
        self.model_rows.set_function(
            lambda: self._session_snapshot["model_rows"]
        )
        self.jobs = reg.gauge(
            "repro_jobs", "Session jobs by lifecycle status.", ("status",)
        )
        for status in ("pending", "running", "done", "failed"):
            self.jobs.set_function(
                (lambda s: lambda: self._session_snapshot["jobs"][s])(status),
                status,
            )
        self.job_queue_depth = reg.gauge(
            "repro_job_queue_depth", "Jobs submitted but not yet finished."
        )
        self.job_queue_depth.set_function(
            lambda: self._session_snapshot["job_queue_depth"]
        )
        self.jobs_evicted = reg.counter(
            "repro_jobs_evicted_total",
            "Finished jobs evicted from the session table, by policy "
            "(retrieved = count cap on fetched jobs, ttl = age-based "
            "reclaim of fire-and-forget jobs).",
            ("policy",),
        )
        for policy in ("retrieved", "ttl"):
            self.jobs_evicted.set_function(
                (lambda p: lambda: self._session_snapshot["jobs_evicted"][p])(
                    policy
                ),
                policy,
            )

        if ingestor is not None:
            self.ingest_events = reg.counter(
                "repro_ingest_events_total",
                "Telemetry records ingested per shard (as of last merge).",
                ("shard",),
            )
            self.ingest_rejected = reg.counter(
                "repro_ingest_rejected_total",
                "Telemetry records rejected per shard (as of last merge).",
                ("shard",),
            )
            self.ingest_pending = reg.gauge(
                "repro_ingest_pending_batches",
                "Queued command batches per shard (approximate).",
                ("shard",),
            )

            def shard_stat(index: int, field: str) -> Callable[[], float]:
                return lambda: self._ingest_snapshot["shards"][index][field]

            for index in range(ingestor.num_shards):
                shard = str(index)
                self.ingest_events.set_function(
                    shard_stat(index, "ingested"), shard
                )
                self.ingest_rejected.set_function(
                    shard_stat(index, "rejected"), shard
                )
                self.ingest_pending.set_function(
                    shard_stat(index, "pending"), shard
                )
            self.ingest_merges = reg.counter(
                "repro_ingest_merges_total",
                "Snapshot merges published to the serving store.",
            )
            self.ingest_merges.set_function(
                lambda: self._ingest_snapshot["merges"]
            )

        self.gc_collections = reg.counter(
            "repro_gc_collections_total",
            "Cyclic garbage collections run by the serving process, by "
            "generation (2 = full collection).",
            ("generation",),
        )
        for generation in range(3):
            self.gc_collections.set_function(
                (lambda g: lambda: self._gc_snapshot[g]["collections"])(
                    generation
                ),
                str(generation),
            )

        self.span_duration = reg.histogram(
            "repro_span_duration_seconds",
            "Traced span durations, by phase (empty until tracing is on).",
            ("phase",),
            buckets=SPAN_BUCKETS,
        )
        if tracer is not None:
            tracer.observer = self._observe_span

        if edge:
            self._register_edge_metrics(
                reg,
                idempotency_store=idempotency_store,
                rate_limiter=rate_limiter,
            )

    def _observe_span(self, record) -> None:
        """Tracer observer hook: one sample per recorded span."""
        self.span_duration.observe(
            record.end - record.start, labels=(record.name,)
        )

    def render(self) -> str:
        """The ``/metrics`` response body (one snapshot per subsystem)."""
        self._session_snapshot = self._session.metrics()
        self._gc_snapshot = gc.get_stats()
        if self._ingestor is not None:
            self._ingest_snapshot = self._ingestor.metrics()
        return self.registry.render()
