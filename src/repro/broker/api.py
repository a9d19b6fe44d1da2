"""Broker API v2: sessions, jobs, batching and the cross-request cache.

The paper's broker (Figure 2) is a *service*: many customers submit
requests against the same observed telemetry and rate cards.  PR 1 gave
every strategy a shared per-request :class:`EvaluationEngine`; this
module lifts that sharing across requests:

- :class:`EngineCache` keys engines by (provider, base-system signature,
  contract, rate-card fingerprint, catalog variant) with LRU eviction,
  so repeated and similar requests reuse the per-(cluster, technology)
  term caches instead of recomputing them;
- :class:`BrokerSession` is the v2 facade: synchronous ``recommend``,
  batched ``recommend_many`` over a bounded worker pool, an async
  ``submit`` / ``poll`` / ``result`` job lifecycle, and a ``stream``
  generator that emits :class:`~repro.broker.envelope.ProgressEvent`s
  while distilling exhaustive sweeps without materializing option
  tables.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from repro.broker.envelope import (
    ProgressEvent,
    RecommendEnvelope,
    ReportEnvelope,
    contract_to_dict,
)
from repro.broker.ratecard import registry_for_provider
from repro.broker.request import RecommendationRequest
from repro.cloud.pricing import RateCard
from repro.cost.rates import LaborRate
from repro.errors import (
    BrokerError,
    InsufficientTelemetryError,
    UnknownNameError,
    ValidationError,
    unknown_name_message,
)
from repro.optimizer.engine import (
    EngineStats,
    EvaluationEngine,
    resolve_backend,
)
from repro.obs import clock
from repro.obs.trace import SpanContext, Tracer, maybe_span, parse_traceparent
from repro.optimizer.result import OptimizationResult, ResultAccumulator
from repro.optimizer.space import OptimizationProblem
from repro.sla.contract import Contract
from repro.topology.serialization import system_to_json
from repro.topology.system import SystemTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.broker.service import (
        BrokerService,
        ProviderRecommendation,
        RecommendationReport,
    )

#: Default number of engines an :class:`EngineCache` retains.
DEFAULT_CACHE_CAPACITY = 16

#: Default worker-pool width for batched/async submission.
DEFAULT_MAX_WORKERS = 4

#: Default cap on finished (done/failed) jobs a session's table retains.
DEFAULT_MAX_FINISHED_JOBS = 1024

#: Job lifecycle states.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _trace_context(envelope: RecommendEnvelope) -> SpanContext | None:
    """The envelope's traceparent as a context; invalid values discarded.

    Per the W3C trace-context spec a malformed incoming header is
    dropped (the server starts its own trace) rather than rejected —
    observability metadata must never fail a request.
    """
    if envelope.trace is None:
        return None
    try:
        return parse_traceparent(envelope.trace)
    except ValidationError:
        return None


def system_signature(system: SystemTopology) -> str:
    """Content hash of a topology's canonical JSON serialization.

    Two materialized base systems share a signature exactly when every
    cluster, node estimate and price agrees — so fresher telemetry (new
    ``P̂/f̂`` estimates) changes the signature and misses the cache
    instead of serving stale engines.
    """
    return _digest(system_to_json(system, indent=0))


def contract_fingerprint(contract: Contract) -> str:
    """Content hash of a contract's wire serialization.

    Custom :class:`~repro.sla.penalty.PenaltyClause` subclasses have no
    wire form; they fall back to the clause's ``repr`` (dataclass reprs
    carry every field), so extending the penalty ABC keeps working —
    such contracts just cannot travel in envelopes.
    """
    try:
        return _digest(json.dumps(contract_to_dict(contract), sort_keys=True))
    except ValidationError:
        return _digest(repr(contract))


def rate_card_fingerprint(card: RateCard) -> str:
    """Content hash of everything a rate card prices.

    Covers SKU catalogs (reprs carry every field), HA add-on prices,
    labor-hour norms and the labor rate — the full set of inputs the
    technology registry and TCO model read from the card.
    """
    payload = (
        tuple(repr(sku) for sku in card.instance_types),
        tuple(repr(sku) for sku in card.volume_types),
        tuple(repr(sku) for sku in card.gateway_types),
        tuple(sorted(card.ha_addons.items())),
        tuple(sorted(card.ha_labor_hours.items())),
        card.labor_rate_per_hour,
    )
    return _digest(repr(payload))


@dataclass(frozen=True)
class EngineKey:
    """Identity of one cached engine.

    The first four fields are the ISSUE-mandated key components;
    ``variant`` folds in the remaining inputs that change what an engine
    *computes* (catalog width, failover estimates, evaluation mode).
    The evaluation backend is deliberately **not** part of the key: it
    only changes where the float math runs, never its results, so a
    warm engine is rebound in place
    (:meth:`~repro.optimizer.engine.EvaluationEngine.set_backend`)
    instead of being rebuilt — a backend switch costs zero new
    cluster-term computations.
    """

    provider: str
    base_system: str
    contract: str
    rate_card: str
    variant: tuple

    @classmethod
    def build(
        cls,
        provider_name: str,
        base_system: SystemTopology,
        contract: Contract,
        rate_card: RateCard,
        *,
        failover_minutes: Mapping[str, float],
        extended_catalog: bool,
        engine_mode: str,
    ) -> "EngineKey":
        """Fingerprint every input that shapes an engine's caches."""
        return cls(
            provider=provider_name,
            base_system=system_signature(base_system),
            contract=contract_fingerprint(contract),
            rate_card=rate_card_fingerprint(rate_card),
            variant=(
                tuple(sorted(failover_minutes.items())),
                extended_catalog,
                engine_mode,
            ),
        )


def _request_stats(
    before: EngineStats, after: EngineStats, first_service: bool
) -> EngineStats:
    """Per-request engine work: the delta across one request's serving.

    Cached engines accumulate counters across every request they serve;
    reports should audit only their own work (v1 semantics, where each
    request built a fresh engine).  The construction-time n*k cluster
    precompute is attributed to the first request served by the engine.
    If two requests interleave on one shared engine (only possible via
    partially-consumed streams), the delta covers the interleaved work.
    """
    return EngineStats(
        candidate_evaluations=(
            after.candidate_evaluations - before.candidate_evaluations
        ),
        cache_hits=after.cache_hits - before.cache_hits,
        incremental_combines=(
            after.incremental_combines - before.incremental_combines
        ),
        topology_evaluations=(
            after.topology_evaluations - before.topology_evaluations
        ),
        cluster_term_computations=(
            after.cluster_term_computations if first_service else 0
        ),
    )


@dataclass
class EngineCacheStats:
    """Hit/miss/eviction accounting for one :class:`EngineCache`.

    ``evicted_engines_closed`` counts evicted engines whose worker-pool
    lease was actually released (eviction alone only drops the map
    entry); ``deferred_engine_closes`` counts evictions whose close had
    to wait for an in-flight request still holding the entry — the
    holder completes the close through :meth:`EngineCache.finish`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evicted_engines_closed: int = 0
    deferred_engine_closes: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered by an existing engine."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def to_dict(self) -> dict[str, int]:
        """JSON-safe counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evicted_engines_closed": self.evicted_engines_closed,
            "deferred_engine_closes": self.deferred_engine_closes,
        }

    def describe(self) -> str:
        """One-line summary for CLI/benchmark output."""
        return (
            f"engine cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100:.0f}% hit rate, "
            f"{self.evictions} evictions)"
        )


@dataclass
class _CacheEntry:
    """A cached engine plus the lock serializing its (sequential) use.

    ``engine`` is ``None`` only while the winning thread is still
    inside the factory (build happens under ``lock``, not the cache's
    global lock).  ``unserved`` is True until the first request served
    by this engine completes — per-request stat deltas attribute the
    construction-time cluster-term precompute to that request.

    ``evicted`` flips (under the cache's global lock) when LRU eviction
    drops the entry from the map; ``closed`` records that the engine's
    worker-pool lease was released afterwards.  An evicted-but-not-yet-
    closed entry is one an in-flight request still holds — that holder
    finishes the close via :meth:`EngineCache.finish`.

    ``lock`` makes the engine single-consumer: every evaluation on it —
    a whole search, or one streamed block — runs under the lock, so no
    two threads ever evaluate on one engine at once and the engine
    itself needs no lock of its own.
    """

    key: EngineKey
    engine: EvaluationEngine | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    unserved: bool = True
    evicted: bool = False
    closed: bool = False


class EngineCache:
    """LRU cache of :class:`EvaluationEngine` instances across requests.

    One cache typically lives as long as a :class:`BrokerSession`; it
    may also be shared between sessions (or services) to pool engines
    across front-ends.  All operations are thread-safe.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise BrokerError(f"cache capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.stats = EngineCacheStats()
        self._entries: OrderedDict[EngineKey, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def entry(
        self, key: EngineKey, factory: Callable[[], EvaluationEngine]
    ) -> _CacheEntry:
        """Return the entry for ``key``, building the engine on a miss.

        The global lock covers only map bookkeeping; the factory (the
        n*k per-cluster precompute) runs under the entry's own lock, so
        distinct keys build concurrently while racing requests for the
        *same* key still share one build.

        LRU eviction closes the dropped engines *outside* the global
        lock (pool shutdown can block): an engine's worker-pool lease
        would otherwise leak until interpreter exit.  If an in-flight
        request still holds an evicted entry, the close is deferred to
        that holder (:meth:`finish`).
        """
        evicted: list[_CacheEntry] = []
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
            else:
                self.stats.misses += 1
                entry = _CacheEntry(key=key)
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    _, dropped = self._entries.popitem(last=False)
                    dropped.evicted = True
                    evicted.append(dropped)
                    self.stats.evictions += 1
        for dropped in evicted:
            self._close_evicted(dropped, count_deferred=True)
        if entry.engine is None:
            with entry.lock:
                if entry.engine is None:
                    try:
                        entry.engine = factory()
                    except BaseException:
                        # Don't poison the cache with a never-built entry.
                        with self._lock:
                            if self._entries.get(key) is entry:
                                del self._entries[key]
                        raise
        return entry

    def _close_evicted(
        self, entry: _CacheEntry, *, count_deferred: bool = False
    ) -> None:
        """Release an evicted entry's engine without blocking.

        Runs outside the global lock.  The entry's own lock is taken
        non-blockingly: if an in-flight request holds it, the close is
        deferred — the holder calls :meth:`finish` once done.  The
        engine is closed even when ``entry.closed`` is already set: a
        holder that resolved the entry before eviction may have revived
        the closed engine (a closed engine lazily re-acquires its pool),
        so every finish re-closes; ``EvaluationEngine.close`` is
        idempotent and only the first close is counted.
        """
        if not entry.lock.acquire(blocking=False):
            if count_deferred and not entry.closed:
                with self._lock:
                    self.stats.deferred_engine_closes += 1
            return
        try:
            if entry.engine is not None:
                entry.engine.close()
            first_close, entry.closed = not entry.closed, True
        finally:
            entry.lock.release()
        if first_close:
            with self._lock:
                self.stats.evicted_engines_closed += 1

    def finish(self, entry: _CacheEntry) -> None:
        """Complete (or repeat) an eviction close after using an entry.

        Sessions call this (outside the entry's lock) whenever they are
        done serving a request from a cached engine; it is a no-op
        unless the entry was evicted.  Re-closing matters: an in-flight
        holder revives a closed engine's pool lease just by evaluating
        on it, so the *last* user out must always shut the lease down.
        """
        if entry.evicted:
            self._close_evicted(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: EngineKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> tuple[EngineKey, ...]:
        """Cached keys in LRU order (least recently used first)."""
        with self._lock:
            return tuple(self._entries)

    def engines(self) -> tuple[EvaluationEngine, ...]:
        """The live (fully built) engines, LRU order — for stats."""
        with self._lock:
            return tuple(
                entry.engine
                for entry in self._entries.values()
                if entry.engine is not None
            )

    def cluster_term_computations(self) -> int:
        """Total per-(cluster, technology) precomputes across engines.

        The acceptance metric for warm sessions: serving a repeated
        request must leave this number unchanged.
        """
        return sum(
            engine.stats.cluster_term_computations for engine in self.engines()
        )

    def clear(self) -> None:
        """Drop every cached engine (stats are retained).

        Dropped engines are closed like LRU evictions — non-blockingly,
        deferring to in-flight holders — so clearing a cache of
        process-backed engines does not leak their pool leases.
        """
        with self._lock:
            dropped = tuple(self._entries.values())
            self._entries.clear()
            for entry in dropped:
                entry.evicted = True
        for entry in dropped:
            self._close_evicted(entry, count_deferred=True)


@dataclass
class BrokerJob:
    """One submitted request's lifecycle record.

    ``retrieved`` flips when :meth:`BrokerSession.result` hands the
    outcome to a caller; only retrieved jobs are eligible for the
    count-based retention eviction, so an unread report is never yanked
    out from under a slow collector.  ``finished_at`` (monotonic
    seconds) is stamped when the job reaches a terminal state and
    drives the session's age-based TTL eviction, which *does* reclaim
    never-retrieved jobs — the fire-and-forget leak.

    ``trace``/``submitted_at`` carry the submitter's span context into
    the worker thread (contextvars do not cross executor threads) so
    ``_run_job`` can re-activate it and attribute the submit→run gap to
    a ``queue_wait`` span.  Both stay ``None`` when tracing is off.
    """

    job_id: str
    envelope: RecommendEnvelope
    status: str = JOB_PENDING
    report: "RecommendationReport | None" = None
    error: Exception | None = None
    retrieved: bool = False
    finished_at: float | None = None
    trace: SpanContext | None = None
    submitted_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def request(self) -> RecommendationRequest:
        """The wrapped recommendation request."""
        return self.envelope.request


class BrokerSession:
    """The v2 facade: sessioned, batched, streaming recommendations.

    A session wraps a :class:`~repro.broker.service.BrokerService`
    (which owns providers and telemetry) and adds the request/response
    machinery: the cross-request :class:`EngineCache`, a bounded worker
    pool for batched submission, and the job table behind
    ``submit`` / ``poll`` / ``result``.

    Sessions are context managers; ``close()`` shuts the worker pool
    down (jobs already submitted still complete).

    The job table retains at most ``max_finished_jobs`` finished jobs
    whose result has been *retrieved*, evicting oldest-first on
    submission, so a long-running server session does not grow without
    bound.  Pending, running and unretrieved-finished jobs are never
    evicted by that count-based policy (batches of any size stay
    collectable) — but fire-and-forget submitters that never call
    ``result()`` would still grow the table forever, so
    ``finished_job_ttl`` adds an age-based policy: any finished job
    (retrieved or not) older than the TTL is reclaimed on the next
    submission.  Polling an evicted job raises the same unknown-job
    error as a never-submitted id; both eviction paths are counted in
    :meth:`metrics`.

    ``backend`` sets the session's default evaluation backend for
    requests that do not pin one themselves (``request.backend``
    always wins).

    ``tracer`` (a :class:`repro.obs.Tracer`, usually owned by the
    server transport) enables per-phase span recording: requests get
    ``cache_lookup``/``terms``/``evaluate``/``distill`` spans, async
    jobs get ``job``/``queue_wait`` spans re-parented to the submitter's
    context.  ``None`` (the default) disables tracing at zero cost.
    """

    def __init__(
        self,
        service: "BrokerService",
        *,
        engine_cache: EngineCache | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        max_workers: int = DEFAULT_MAX_WORKERS,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
        finished_job_ttl: float | None = None,
        backend: str | None = None,
        tracer: Tracer | None = None,
        job_id_start: int = 1,
        job_id_stride: int = 1,
    ) -> None:
        if max_workers < 1:
            raise BrokerError(f"max_workers must be >= 1, got {max_workers!r}")
        if job_id_start < 1:
            raise BrokerError(
                f"job_id_start must be >= 1, got {job_id_start!r}"
            )
        if job_id_stride < 1:
            raise BrokerError(
                f"job_id_stride must be >= 1, got {job_id_stride!r}"
            )
        if max_finished_jobs < 1:
            raise BrokerError(
                f"max_finished_jobs must be >= 1, got {max_finished_jobs!r}"
            )
        if finished_job_ttl is not None and finished_job_ttl <= 0.0:
            raise BrokerError(
                f"finished_job_ttl must be > 0, got {finished_job_ttl!r}"
            )
        if backend is not None:
            # Fail fast on typos; None stays None (per-request resolution).
            resolve_backend(backend)
        self.service = service
        # Explicit None check: an empty EngineCache is falsy (__len__).
        self.engine_cache = (
            engine_cache if engine_cache is not None else EngineCache(cache_capacity)
        )
        self._owns_cache = engine_cache is None
        self.max_workers = max_workers
        self.max_finished_jobs = max_finished_jobs
        self.finished_job_ttl = finished_job_ttl
        self.backend = backend
        # Tracing: None means disabled — every instrumentation point in
        # the session guards on a single `is not None` check, so the
        # untraced hot path is unchanged (see repro.obs).
        self.tracer = tracer
        self._jobs: "OrderedDict[str, BrokerJob]" = OrderedDict()
        self._futures: dict[str, Future] = {}
        self._executor: ThreadPoolExecutor | None = None
        # Strided ids let N sessions (one per worker process) mint from
        # disjoint arithmetic progressions: session i of N uses
        # start=i+1, stride=N, so any id routes back to its minter via
        # (n - 1) % N.  The defaults reproduce job-000001, job-000002...
        self._job_id_stride = job_id_stride
        self._counter = job_id_start - job_id_stride
        self._lock = threading.Lock()
        self._closed = False
        self._evicted_retrieved = 0
        self._evicted_ttl = 0
        # Injection point for eviction tests; monotonic so wall-clock
        # jumps never mass-expire a healthy table.
        self._clock = clock.monotonic

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "BrokerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down; in-flight jobs run to completion.

        When the session built its own engine cache, the cached engines'
        evaluation-backend pools are shut down too (after the job pool
        drains, so no in-flight request loses its workers).  A shared
        cache passed in by the caller is left untouched — other
        sessions may still be serving from it.
        """
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)
        if self._owns_cache:
            for engine in self.engine_cache.engines():
                engine.close()

    # -- synchronous API ---------------------------------------------------

    def recommend(self, request: RecommendationRequest) -> "RecommendationReport":
        """Serve one request through the cross-request engine cache.

        Same contract as the v1 ``BrokerService.recommend``: providers
        lacking telemetry are skipped, and if none can serve the request
        an :class:`InsufficientTelemetryError` lists the gaps.
        """
        from repro.broker.service import RecommendationReport

        recommendations = []
        failures: list[str] = []
        for name in self._provider_names(request):
            try:
                recommendations.append(self._recommend_provider(request, name))
            except InsufficientTelemetryError as exc:
                failures.append(f"{name}: {exc}")
        if not recommendations:
            raise InsufficientTelemetryError(
                "no provider has enough telemetry to serve this request: "
                + "; ".join(failures)
            )
        return RecommendationReport(
            request_name=request.system_name,
            recommendations=tuple(recommendations),
        )

    def recommend_envelope(self, envelope: RecommendEnvelope) -> ReportEnvelope:
        """Wire-in, wire-out: serve a request envelope.

        When the session traces and no span is active yet (direct
        session use, or a transport that did not open a root span), an
        envelope carrying a traceparent gets a ``request`` root span of
        its own, so trace continuity survives every entry point.
        """
        tracer = self.tracer
        if tracer is not None and tracer.current() is None:
            parent = _trace_context(envelope)
            if parent is not None:
                with tracer.span(
                    "request",
                    parent=parent,
                    attrs={
                        "route": "recommend",
                        "request_id": envelope.request_id or "",
                    },
                ):
                    return ReportEnvelope.from_report(
                        self.recommend(envelope.request),
                        request_id=envelope.request_id,
                    )
        return ReportEnvelope.from_report(
            self.recommend(envelope.request), request_id=envelope.request_id
        )

    def recommend_many(
        self, requests: Iterable[RecommendationRequest]
    ) -> tuple["RecommendationReport", ...]:
        """Serve a batch of requests on the bounded worker pool.

        Reports come back in submission order and are bit-identical to
        sequential :meth:`recommend` calls — evaluation is deterministic
        and cached engines are pure, so concurrency only changes
        wall-clock, never results.
        """
        job_ids = [self.submit(request) for request in requests]
        return tuple(self.result(job_id) for job_id in job_ids)

    # -- job lifecycle -----------------------------------------------------

    def submit(
        self, request: "RecommendationRequest | RecommendEnvelope"
    ) -> str:
        """Queue a request on the worker pool; returns its job id."""
        envelope = (
            request
            if isinstance(request, RecommendEnvelope)
            else RecommendEnvelope(request=request)
        )
        with self._lock:
            if self._closed:
                raise BrokerError("session is closed; no further submissions")
            self._counter += self._job_id_stride
            job_id = f"job-{self._counter:06d}"
            if envelope.request_id is None:
                # dataclasses.replace keeps every other wire field
                # (trace, idempotency_key, future additions) intact.
                envelope = replace(envelope, request_id=job_id)
            job = BrokerJob(job_id=job_id, envelope=envelope)
            tracer = self.tracer
            if tracer is not None:
                ctx = tracer.current()
                if ctx is None:
                    ctx = _trace_context(envelope)
                if ctx is not None:
                    job.trace = ctx
                    job.submitted_at = clock.perf_counter()
            self._jobs[job_id] = job
            self._evict_finished_jobs()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="broker-session",
                )
            self._futures[job_id] = self._executor.submit(self._run_job, job)
        return job_id

    def _run_job(self, job: BrokerJob) -> None:
        tracer = self.tracer
        if tracer is None or job.trace is None:
            self._execute_job(job)
            return
        # Worker threads are reused across jobs: activate this job's
        # context for the duration only, and always restore on the way
        # out or a later job inherits a stale trace.
        token = tracer.activate(job.trace)
        try:
            # Back-dating the job span to submit time makes queue_wait
            # a properly nested child covering the submit→run gap.
            with tracer.span(
                "job",
                start=job.submitted_at,
                attrs={"job_id": job.job_id},
            ) as span:
                if job.submitted_at is not None:
                    tracer.record(
                        "queue_wait",
                        parent=span.context,
                        start=job.submitted_at,
                        end=clock.perf_counter(),
                    )
                self._execute_job(job)
                span.attrs["status"] = job.status
        finally:
            tracer.restore(token)

    def _execute_job(self, job: BrokerJob) -> None:
        job.status = JOB_RUNNING
        try:
            job.report = self.recommend(job.request)
            job.status = JOB_DONE
        except Exception as exc:  # noqa: BLE001 - surfaced via result()
            job.error = exc
            job.status = JOB_FAILED
        finally:
            job.finished_at = self._clock()
            job.done.set()

    def _evict_finished_jobs(self) -> None:
        """Apply both finished-job retention policies (under ``_lock``).

        Reports are large (they hold full option rankings); without a
        bound, a server session fed a steady job stream leaks one
        report per request forever.  Two policies run on every
        submission:

        - **TTL** (``finished_job_ttl``): finished jobs older than the
          TTL are dropped whether or not their result was ever fetched —
          this is what reclaims fire-and-forget submissions.
        - **Count** (``max_finished_jobs``): beyond the cap, the oldest
          *retrieved* finished jobs are dropped; unretrieved jobs are
          exempt so a batch of any size stays collectable until it ages
          out.

        Both eviction counts surface through :meth:`metrics` (and the
        server's ``/metrics`` job gauges).  Pending and running jobs
        are never evicted.
        """
        if self.finished_job_ttl is not None:
            cutoff = self._clock() - self.finished_job_ttl
            expired = [
                job_id
                for job_id, job in self._jobs.items()
                if job.status in (JOB_DONE, JOB_FAILED)
                and job.finished_at is not None
                and job.finished_at <= cutoff
            ]
            for job_id in expired:
                del self._jobs[job_id]
                self._futures.pop(job_id, None)
            self._evicted_ttl += len(expired)
        retrieved = [
            job_id
            for job_id, job in self._jobs.items()
            if job.retrieved and job.status in (JOB_DONE, JOB_FAILED)
        ]
        overflow = retrieved[: max(0, len(retrieved) - self.max_finished_jobs)]
        for job_id in overflow:
            del self._jobs[job_id]
            self._futures.pop(job_id, None)
        self._evicted_retrieved += len(overflow)

    def job(self, job_id: str) -> BrokerJob:
        """Look up a job record by id."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError as exc:
                raise UnknownNameError(
                    unknown_name_message("job", job_id, self._jobs)
                ) from exc

    def poll(self, job_id: str) -> str:
        """A job's current lifecycle state (non-blocking)."""
        return self.job(job_id).status

    def result(
        self, job_id: str, timeout: float | None = None
    ) -> "RecommendationReport":
        """Block until a job finishes and return (or re-raise) its outcome."""
        return self._job_outcome(self.job(job_id), timeout)

    def _job_outcome(
        self, job: BrokerJob, timeout: float | None
    ) -> "RecommendationReport":
        """The wait/mark-retrieved/raise-or-return core of :meth:`result`.

        Operates on a captured record, never re-resolving the id — once
        a job is marked retrieved, a concurrent ``submit()`` may evict
        it from the table, and a second lookup would misreport a
        completed job as unknown.
        """
        if not job.done.wait(timeout):
            raise BrokerError(
                f"job {job.job_id!r} did not finish within {timeout!r}s "
                f"(status: {job.status})"
            )
        job.retrieved = True
        if job.error is not None:
            raise job.error
        assert job.report is not None
        return job.report

    def result_envelope(
        self, job_id: str, timeout: float | None = None
    ) -> ReportEnvelope:
        """Wire form of :meth:`result`."""
        job = self.job(job_id)
        report = self._job_outcome(job, timeout)
        return ReportEnvelope.from_report(
            report, request_id=job.envelope.request_id
        )

    def jobs(self) -> tuple[BrokerJob, ...]:
        """All job records, in submission order."""
        with self._lock:
            return tuple(self._jobs.values())

    # -- observability -----------------------------------------------------

    def metrics(self) -> dict[str, object]:
        """JSON-safe operational counters for this session.

        The supported way to read cache behaviour without reaching into
        session internals: engine-cache hit/miss/eviction counts (via
        :meth:`EngineCacheStats.to_dict`), how many engines are
        currently cached and their cumulative cluster-term precomputes,
        and the job table broken down by lifecycle state.  The server's
        ``/metrics`` endpoint exports exactly this dictionary.
        """
        statuses = {
            JOB_PENDING: 0,
            JOB_RUNNING: 0,
            JOB_DONE: 0,
            JOB_FAILED: 0,
        }
        for job in self.jobs():
            statuses[job.status] += 1
        with self._lock:
            evicted = {
                "retrieved": self._evicted_retrieved,
                "ttl": self._evicted_ttl,
            }
        return {
            "engine_cache": self.engine_cache.stats.to_dict(),
            "engines_cached": len(self.engine_cache),
            "cluster_term_computations": (
                self.engine_cache.cluster_term_computations()
            ),
            "jobs": dict(statuses),
            "jobs_evicted": evicted,
            "job_queue_depth": statuses[JOB_PENDING] + statuses[JOB_RUNNING],
        }

    # -- streaming ---------------------------------------------------------

    def stream(
        self,
        request: "RecommendationRequest | RecommendEnvelope",
        *,
        progress_every: int = 256,
        request_id: str | None = None,
    ) -> Iterator[ProgressEvent]:
        """Serve a request as a stream of progress/result events.

        Exhaustive (brute-force) sweeps are distilled on the fly through
        :class:`~repro.optimizer.result.ResultAccumulator` with
        ``keep_options=False`` — option tables are never materialized,
        and a ``progress`` event fires every ``progress_every``
        evaluations.  The final ``completed`` event carries the
        :class:`ReportEnvelope` in its detail.
        """
        if progress_every < 1:
            raise BrokerError(
                f"progress_every must be >= 1, got {progress_every!r}"
            )
        if isinstance(request, RecommendEnvelope):
            request_id = request_id or request.request_id
            request = request.request
        yield ProgressEvent(
            "accepted",
            request_id=request_id,
            detail={"system_name": request.system_name},
        )
        from repro.broker.service import RecommendationReport

        recommendations = []
        failures: list[str] = []
        for name in self._provider_names(request):
            yield ProgressEvent(
                "provider-started", request_id=request_id, provider=name
            )
            try:
                if request.strategy == "brute-force":
                    streamed = None
                    for event_or_rec in self._stream_provider(
                        request, name, request_id, progress_every
                    ):
                        if isinstance(event_or_rec, ProgressEvent):
                            yield event_or_rec
                        else:
                            streamed = event_or_rec
                    recommendation = streamed
                else:
                    recommendation = self._recommend_provider(request, name)
            except InsufficientTelemetryError as exc:
                failures.append(f"{name}: {exc}")
                yield ProgressEvent(
                    "provider-skipped",
                    request_id=request_id,
                    provider=name,
                    detail={"reason": str(exc)},
                )
                continue
            recommendations.append(recommendation)
            yield ProgressEvent(
                "provider-completed",
                request_id=request_id,
                provider=name,
                detail={
                    "best": recommendation.result.best.label,
                    "monthly_total": recommendation.monthly_total,
                    "evaluations": recommendation.result.evaluations,
                },
            )
        if not recommendations:
            yield ProgressEvent(
                "failed",
                request_id=request_id,
                detail={
                    "reason": "no provider has enough telemetry: "
                    + "; ".join(failures)
                },
            )
            return
        report = RecommendationReport(
            request_name=request.system_name,
            recommendations=tuple(recommendations),
        )
        yield ProgressEvent(
            "completed",
            request_id=request_id,
            detail={
                "report": ReportEnvelope.from_report(
                    report, request_id=request_id
                ).to_dict()
            },
        )

    def _stream_provider(
        self,
        request: RecommendationRequest,
        name: str,
        request_id: str | None,
        progress_every: int,
    ) -> Iterator["ProgressEvent | ProviderRecommendation"]:
        """Distilled streaming sweep for one provider (brute force only).

        Yields ``progress`` events during the sweep and finally the
        finished :class:`ProviderRecommendation`.  The engine's lock is
        held only while evaluating each block, never across a yield —
        a partially-consumed (or abandoned) stream generator must not
        hold the shared engine hostage against other requests.
        """
        from repro.broker.service import ProviderRecommendation

        entry = self._cache_entry(request, name)
        engine = entry.engine
        tracer = self.tracer
        trace_ctx = tracer.current() if tracer is not None else None
        distill_started = clock.perf_counter() if trace_ctx is not None else 0.0
        accumulator = ResultAccumulator(
            space_size=engine.space.size,
            strategy="brute-force",
            keep_options=False,
        )
        candidates = enumerate(engine.space.candidates_in_paper_order(), start=1)
        # No backend rebind here: streaming interleaves progress events
        # with evaluation, so candidates go through engine.evaluate()
        # one at a time — always in-process, whatever the backend.
        # Rebinding would only churn a warm engine's worker pool.
        try:
            with entry.lock:
                before = engine.stats.snapshot()
            exhausted = False
            while not exhausted:
                with entry.lock:
                    for _ in range(progress_every):
                        item = next(candidates, None)
                        if item is None:
                            exhausted = True
                            break
                        option_id, indices = item
                        accumulator.add(engine.evaluate(option_id, indices))
                if not exhausted:
                    yield ProgressEvent(
                        "progress",
                        request_id=request_id,
                        provider=name,
                        detail={
                            "evaluated": accumulator.count,
                            "space_size": engine.space.size,
                        },
                    )
            with entry.lock:
                after = engine.stats.snapshot()
                first_service = entry.unserved
                entry.unserved = False
            if trace_ctx is not None:
                # Pre-timed: a span context manager must not straddle
                # yields — an abandoned generator would never close it.
                tracer.record(
                    "distill",
                    parent=trace_ctx,
                    start=distill_started,
                    end=clock.perf_counter(),
                    attrs={
                        "provider": name,
                        "evaluated": str(accumulator.count),
                    },
                )
        finally:
            # Runs when the sweep completes *and* when a partially
            # consumed stream generator is abandoned — either way a
            # deferred eviction close falls to the last holder.
            self.engine_cache.finish(entry)
        yield ProviderRecommendation(
            provider_name=name,
            base_system=engine.problem.base_system,
            result=accumulator.finish(),
            engine_stats=_request_stats(before, after, first_service),
        )

    # -- internals ---------------------------------------------------------

    def _provider_names(self, request: RecommendationRequest) -> tuple[str, ...]:
        return request.providers or tuple(sorted(self.service.providers))

    def _request_backend(self, request: RecommendationRequest) -> str:
        """The concrete evaluation backend one request should run on.

        Precedence: the request's own ``backend``, then the session
        default, then :func:`resolve_backend`'s environment fallback.
        """
        return resolve_backend(request.backend or self.backend, mode=request.engine)

    def _cache_entry(
        self, request: RecommendationRequest, provider_name: str
    ) -> _CacheEntry:
        """Resolve (or build) the cached engine serving one provider.

        Raises :class:`InsufficientTelemetryError` when the knowledge
        base cannot estimate the request's component kinds for this
        provider.
        """
        provider = self.service.provider(provider_name)
        base_system = self.service.materialize_topology(request, provider)
        failover_estimates = {
            requirement.component_kind: self.service.knowledge_base.estimate(
                provider_name, requirement.component_kind
            ).failover_minutes
            for requirement in request.clusters
        }
        key = EngineKey.build(
            provider_name,
            base_system,
            request.contract,
            provider.rate_card,
            failover_minutes=failover_estimates,
            extended_catalog=request.extended_catalog,
            engine_mode=request.engine,
        )
        backend = self._request_backend(request)
        tracer = self.tracer

        def build_engine() -> EvaluationEngine:
            registry = registry_for_provider(
                provider,
                failover_minutes=failover_estimates,
                extended=request.extended_catalog,
            )
            problem = OptimizationProblem(
                base_system=base_system,
                registry=registry,
                contract=request.contract,
                labor_rate=LaborRate(provider.rate_card.labor_rate_per_hour),
            )
            # The factory runs on the requesting thread under the entry
            # lock, so this span nests inside cache_lookup — the n*k
            # cluster-term precompute is exactly a cache miss's cost.
            with maybe_span(tracer, "terms", attrs={"provider": provider_name}):
                return EvaluationEngine(
                    problem, mode=request.engine, backend=backend
                )

        with maybe_span(
            tracer, "cache_lookup", attrs={"provider": provider_name}
        ):
            entry = self.engine_cache.entry(key, build_engine)
        if tracer is not None:
            # One tracer serves the whole session; per-request identity
            # lives in contextvars, so a shared cached engine can simply
            # keep pointing at it.
            entry.engine.tracer = tracer
        return entry

    def _recommend_provider(
        self, request: RecommendationRequest, name: str
    ) -> "ProviderRecommendation":
        """One provider's recommendation, via the engine cache."""
        from repro.broker.service import (
            _STRATEGY_FUNCTIONS,
            ProviderRecommendation,
        )

        entry = self._cache_entry(request, name)
        engine = entry.engine
        optimize = _STRATEGY_FUNCTIONS[request.strategy]
        backend = self._request_backend(request)
        # A cache hit may serve the search from a different worker
        # thread later; engines are single-consumer, so each entry's
        # lock serializes use of its engine.  A warm engine is rebound
        # to the request's backend in place — term and result caches
        # survive the switch.
        try:
            with entry.lock:
                engine.set_backend(backend)
                before = engine.stats.snapshot()
                with maybe_span(
                    self.tracer,
                    "evaluate",
                    attrs={
                        "provider": name,
                        "strategy": request.strategy,
                        "backend": backend,
                    },
                ):
                    result: OptimizationResult = optimize(
                        engine.problem, engine=engine
                    )
                after = engine.stats.snapshot()
                first_service = entry.unserved
                entry.unserved = False
        finally:
            # If the entry was LRU-evicted while this request held it,
            # its deferred close falls to us.
            self.engine_cache.finish(entry)
        return ProviderRecommendation(
            provider_name=name,
            base_system=engine.problem.base_system,
            result=result,
            engine_stats=_request_stats(before, after, first_service),
        )
