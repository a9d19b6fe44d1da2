"""Broker API v2: sessions, jobs, batching and the cross-request cache.

The paper's broker (Figure 2) is a *service*: many customers submit
requests against the same observed telemetry and rate cards.  PR 1 gave
every strategy a shared per-request :class:`EvaluationEngine`; this
module lifts that sharing across requests:

- :class:`EngineCache` keys engines by the values of their inputs
  (provider, materialized base system, contract, rate card, catalog
  variant) with LRU eviction, so repeated and similar requests reuse
  the per-(cluster, technology) term caches instead of recomputing
  them, and a repeated wire request replays its memoized report.  It
  also keeps one contract-free model per system, which its engines
  share, so a new contract over a known system builds no profiles and
  prices each candidate instead of recombining it;
- :class:`BrokerSession` is the v2 facade: synchronous ``recommend``
  and an async ``submit`` / ``poll`` / ``result`` job lifecycle over a
  bounded worker pool.  Both serve each provider through one method,
  ``_recommend_provider``, which keeps full option tables.  The wire
  paths, ``recommend_envelope`` and jobs submitted with ``wire=True``,
  serve each provider through ``_report_provider`` instead: the replay
  memo, or a distilled search that assembles only the two options a
  wire report reads.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Mapping,
    Sequence,
)

from repro.broker.envelope import (
    ProviderReport,
    RecommendEnvelope,
    ReportEnvelope,
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
    EvaluationModel,
    float_bits,
)
from repro.obs import clock
from repro.obs.trace import SpanContext, Tracer, maybe_span, parse_traceparent
from repro.optimizer.result import OptimizationResult
from repro.optimizer.space import CandidateSpace, OptimizationProblem
from repro.sla.contract import Contract
from repro.topology.system import SystemTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.broker.service import (
        BrokerService,
        ProviderRecommendation,
        RecommendationReport,
    )
    from repro.broker.telemetry import TelemetryStore
    from repro.cloud.provider import CloudProvider

#: Default number of engines an :class:`EngineCache` retains.
DEFAULT_CACHE_CAPACITY = 16

#: Default worker-pool width for async submission.
DEFAULT_MAX_WORKERS = 4

#: Default cap on finished (done/failed) jobs a session's table retains.
DEFAULT_MAX_FINISHED_JOBS = 1024

#: Job lifecycle states.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


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


def _contract_key(contract: Contract) -> object:
    """The contract itself, or its ``repr`` if a clause is unhashable.

    Built-in clauses are frozen dataclasses, so a contract compares by
    value.  A custom :class:`~repro.sla.penalty.PenaltyClause` that is
    a mutable dataclass has no hash; its ``repr`` (dataclass reprs carry
    every field) keys it instead, so extending the penalty ABC keeps
    working.
    """
    try:
        hash(contract)
    except TypeError:
        return repr(contract)
    return contract


def _request_key(request: RecommendationRequest) -> tuple:
    """The request fields that decide which engine serves a provider.

    Left out: ``metadata`` never reaches the report, ``strategy``
    picks a memo inside the entry, ``providers`` picks the entries and
    the retired ``backend`` field changes nothing.
    """
    return (
        request.system_name,
        request.clusters,
        _contract_key(request.contract),
        request.extended_catalog,
    )


def _rate_card_key(card: RateCard) -> tuple:
    """Everything a rate card prices, as a hashable tuple of values.

    Covers SKU catalogs (frozen dataclasses), HA add-on prices,
    labor-hour norms and the labor rate — the full set of inputs the
    technology registry and TCO model read from the card.  The two
    price dicts are read on every request: they can change in place.
    The labor rate enters as its bits: ``0.0 == -0.0``, yet they price
    labor costs of different sign.
    """
    return (
        tuple(card.instance_types),
        tuple(card.volume_types),
        tuple(card.gateway_types),
        tuple(sorted(card.ha_addons.items())),
        tuple(sorted(card.ha_labor_hours.items())),
        float_bits((card.labor_rate_per_hour,)),
    )


@dataclass(frozen=True)
class EngineKey:
    """Identity of one cached engine: the inputs themselves, by value.

    ``base_system`` is the materialized topology; its ``==`` and hash
    cover exactly the fields ``system_to_json`` writes (node estimates
    and prices included, cluster ``metadata`` excluded), so fresher
    telemetry changes the key and misses the cache instead of serving
    stale engines.  ``contract`` and ``rate_card`` are value keys too
    (see :func:`_contract_key` and :func:`_rate_card_key`); ``variant``
    folds in the remaining inputs that change what an engine
    *computes* (failover estimates, catalog width).
    """

    provider: str
    base_system: SystemTopology
    contract: object
    rate_card: tuple
    variant: tuple
    #: The key is hashed once: every cache move and lookup reuses it.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.provider,
                    self.base_system,
                    self.contract,
                    self.rate_card,
                    self.variant,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def model_key(self) -> tuple:
        """The key of the engine's shared model: every input but the contract."""
        return (self.provider, self.base_system, self.rate_card, self.variant)

    @classmethod
    def build(
        cls,
        provider_name: str,
        base_system: SystemTopology,
        contract: Contract,
        rate_card_key: tuple,
        *,
        failover_minutes: Mapping[str, float],
        extended_catalog: bool,
    ) -> "EngineKey":
        """Key every input that shapes an engine's caches.

        ``rate_card_key`` is the provider's :func:`_rate_card_key`,
        derived once per request with its warm key.
        """
        return cls(
            provider=provider_name,
            base_system=base_system,
            contract=_contract_key(contract),
            rate_card=rate_card_key,
            variant=(
                tuple(sorted(failover_minutes.items())),
                extended_catalog,
            ),
        )


class _WarmKey:
    """A warm alias key (see :meth:`BrokerSession.replay_envelope`).

    Its fields are deep tuples of frozen dataclasses, so hashing them
    costs several microseconds, and an ``OrderedDict`` re-hashes its
    keys as it iterates.  The key is hashed once, here, and every later
    lookup, LRU move and set probe reuses that hash.
    """

    __slots__ = ("fields", "_hash")

    def __init__(self, fields: tuple) -> None:
        self.fields = fields
        self._hash = hash(fields)

    def __hash__(self) -> int:
        return self._hash

    @property
    def rate_card(self) -> tuple:
        """The provider's :func:`_rate_card_key`, as derived for the key."""
        return self.fields[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _WarmKey):
            return NotImplemented
        return self._hash == other._hash and self.fields == other.fields


def _request_stats(
    before: EngineStats, after: EngineStats, first_service: bool
) -> EngineStats:
    """Per-request engine work: the delta across one request's serving.

    Cached engines accumulate counters across every request they serve;
    reports should audit only their own work (v1 semantics, where each
    request built a fresh engine).  The construction-time n*k cluster
    precompute is attributed to the first request served by the engine.
    A serve holds its entry's lock across the whole search, so no other
    request's work can fall inside the delta.
    """
    return EngineStats(
        candidate_evaluations=(
            after.candidate_evaluations - before.candidate_evaluations
        ),
        cache_hits=after.cache_hits - before.cache_hits,
        incremental_combines=(
            after.incremental_combines - before.incremental_combines
        ),
        cluster_term_computations=(
            after.cluster_term_computations if first_service else 0
        ),
    )


@dataclass
class EngineCacheStats:
    """Hit/miss/eviction accounting for one :class:`EngineCache`.

    ``replays`` counts the hits answered from an entry's replay memo
    (see :class:`_CacheEntry`) without touching the engine.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    replays: int = 0

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
            "replays": self.replays,
        }

    def describe(self) -> str:
        """One-line summary for CLI/benchmark output."""
        return (
            f"engine cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100:.0f}% hit rate, "
            f"{self.evictions} evictions, {self.replays} replays)"
        )


@dataclass
class _CacheEntry:
    """A cached engine plus the lock serializing its (sequential) use.

    ``engine`` is ``None`` only while the winning thread is still
    inside the factory (build happens under ``lock``, not the cache's
    global lock).  ``unserved`` is True until the first request served
    by this engine completes — per-request stat deltas attribute the
    construction-time cluster-term precompute to that request.

    ``lock`` makes the engine single-consumer: each serve holds it for
    its whole search, so no two threads ever evaluate on one engine at
    once and the engine itself needs no lock of its own.

    ``replays`` memoizes wire sections per strategy: the
    :class:`~repro.broker.envelope.ProviderReport` of a wire serve,
    stored only from a *pure replay*: not the first service, no
    incremental combines, and every candidate a result-cache hit.
    Strategies are deterministic and the engine's result cache only
    grows, so every later replay would rebuild exactly that report,
    ``engine_stats`` included — a memo hit returns it without
    searching.  Only wire serves (:meth:`BrokerSession.replay_envelope`,
    the slow path of :meth:`BrokerSession.recommend_envelope` and wire
    jobs) read or fill the memo; :meth:`BrokerSession.recommend` and
    other jobs always search, because their callers read the full
    option table.  The memo lives and dies with its entry.

    ``aliases`` holds the warm keys that point at this entry (guarded
    by the cache's lock), so an eviction drops exactly those.
    """

    key: EngineKey
    engine: EvaluationEngine | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    unserved: bool = True
    replays: dict[str, ProviderReport] = field(default_factory=dict)
    aliases: set = field(default_factory=set)


class EngineCache:
    """LRU cache of :class:`EvaluationEngine` instances across requests.

    One cache typically lives as long as a :class:`BrokerSession`; it
    may also be shared between sessions (or services) to pool engines
    across front-ends.  All operations are thread-safe.

    Beside the engines, the cache keeps *warm aliases*: a map from a
    cheap per-request key (see :meth:`BrokerSession.replay_envelope`)
    to the entry a slow-path lookup resolved it to, so a repeated
    request finds its entry without deriving an :class:`EngineKey`.
    The alias map is an LRU of at most ``capacity`` keys, and an
    evicted entry takes its aliases with it: an alias never keeps an
    engine alive that the cache itself has let go.

    The cache also owns an LRU of at most ``capacity`` shared models
    (:class:`~repro.optimizer.engine.EvaluationModel`, each with its
    :data:`~repro.optimizer.engine.ModelTable`), keyed by
    :meth:`EngineKey.model_key`: engines for different contracts over
    the same system share one model (see :meth:`model`).  An evicted
    model lives on in the engines already bound to it.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self.check_capacity(capacity)
        self.capacity = capacity
        self.stats = EngineCacheStats()
        self._entries: OrderedDict[EngineKey, _CacheEntry] = OrderedDict()
        self._aliases: OrderedDict[object, _CacheEntry] = OrderedDict()
        self._models: OrderedDict[tuple, EvaluationModel] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def check_capacity(capacity: int) -> None:
        """Raise what constructing a cache of ``capacity`` would raise."""
        if capacity < 1:
            raise BrokerError(f"cache capacity must be >= 1, got {capacity!r}")

    def entry(
        self, key: EngineKey, factory: Callable[[], EvaluationEngine]
    ) -> _CacheEntry:
        """Return the entry for ``key``, building the engine on a miss.

        The global lock covers only map bookkeeping; the factory (the
        n*k per-cluster precompute) runs under the entry's own lock, so
        distinct keys build concurrently while racing requests for the
        *same* key still share one build.

        LRU eviction only drops map entries: an in-flight request still
        holding an evicted entry finishes on its engine, which is freed
        with the last reference.
        """
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
                    _, evicted = self._entries.popitem(last=False)
                    self.stats.evictions += 1
                    self._drop_aliases(evicted)
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

    def model(
        self, key: tuple, factory: Callable[[], EvaluationModel]
    ) -> EvaluationModel:
        """The shared model under ``key``, built by ``factory`` on a miss.

        ``key`` is an :meth:`EngineKey.model_key`.  The factory runs
        outside the cache's lock; when two threads build one key at
        once, the first model published wins and both get it.
        """
        models = self._models
        with self._lock:
            model = models.get(key)
            if model is not None:
                models.move_to_end(key)
                return model
        built = factory()
        with self._lock:
            model = models.get(key)
            if model is not None:
                models.move_to_end(key)
                return model
            models[key] = built
            if len(models) > self.capacity:
                models.popitem(last=False)
        return built

    def model_sizes(self) -> tuple[int, int]:
        """``(models cached, rows across their tables)``."""
        with self._lock:
            models = tuple(self._models.values())
        # repro: lint-ok[REP001] integer row counts, order-free
        return len(models), sum(len(model.table) for model in models)

    def count_replay(self) -> None:
        """Record one hit answered from an entry's replay memo."""
        with self._lock:
            self.stats.replays += 1

    def alias(self, warm_key: object, entry: _CacheEntry) -> None:
        """Point ``warm_key`` at ``entry`` while the entry is cached.

        An entry already evicted (or never published, after a failed
        build) gets no alias.
        """
        with self._lock:
            if self._entries.get(entry.key) is not entry:
                return
            aliases = self._aliases
            previous = aliases.get(warm_key)
            if previous is not None and previous is not entry:
                previous.aliases.discard(warm_key)
            aliases[warm_key] = entry
            aliases.move_to_end(warm_key)
            entry.aliases.add(warm_key)
            if len(aliases) > self.capacity:
                oldest, owner = aliases.popitem(last=False)
                owner.aliases.discard(oldest)

    def replay(
        self, warm_keys: Sequence[object], memo_key: str
    ) -> list[ProviderReport] | None:
        """Every warm key's memoized wire section under ``memo_key``, or None.

        All or nothing: one missing alias or memo, or one entry lock
        held by a search in progress, returns None with nothing
        counted.  Entry locks are only tried, never waited on, so the
        caller may run on an event loop.  A full answer counts one hit
        and one replay per key and refreshes each entry's LRU position,
        exactly as the slow path would.  Every alias found is refreshed
        in the alias LRU.
        """
        aliases = self._aliases
        with self._lock:
            entries = [aliases.get(key) for key in warm_keys]
            for key, entry in zip(warm_keys, entries):
                if entry is not None:
                    aliases.move_to_end(key)
        replays = []
        for entry in entries:
            if entry is None or not entry.lock.acquire(blocking=False):
                return None
            try:
                memo = entry.replays.get(memo_key)
            finally:
                entry.lock.release()
            if memo is None:
                return None
            replays.append(memo)
        with self._lock:
            self.stats.hits += len(entries)
            self.stats.replays += len(entries)
            for entry in entries:
                if self._entries.get(entry.key) is entry:
                    self._entries.move_to_end(entry.key)
        return replays

    def _drop_aliases(self, entry: _CacheEntry) -> None:
        """Forget every alias of an evicted entry (under ``_lock``)."""
        aliases = self._aliases
        for key in entry.aliases:
            del aliases[key]
        entry.aliases.clear()

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
        """Drop every cached engine and model (stats are retained)."""
        with self._lock:
            for entry in self._entries.values():
                entry.aliases.clear()
            self._entries.clear()
            self._aliases.clear()
            self._models.clear()


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

    A ``wire`` job (``submit(..., wire=True)``) is served as
    :meth:`BrokerSession.recommend_envelope` serves, and its ``report``
    is the :class:`~repro.broker.envelope.ReportEnvelope`; any other
    job's ``report`` is the full-table ``RecommendationReport``.
    """

    job_id: str
    envelope: RecommendEnvelope
    wire: bool = False
    status: str = JOB_PENDING
    report: "RecommendationReport | ReportEnvelope | None" = None
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
    """The v2 facade: sessioned recommendations and async jobs.

    A session wraps a :class:`~repro.broker.service.BrokerService`
    (which owns providers and telemetry) and adds the request/response
    machinery: the cross-request :class:`EngineCache`, a bounded worker
    pool for submitted jobs, and the job table behind
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

    ``tracer`` (a :class:`repro.obs.Tracer`, usually owned by the
    server transport) enables per-phase span recording: requests get
    ``key``/``cache_lookup``/``terms``/``evaluate`` spans,
    async jobs get ``job``/``queue_wait`` spans re-parented to the
    submitter's context.  ``None`` (the default) disables tracing at
    zero cost.
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
        tracer: Tracer | None = None,
        job_id_start: int = 1,
        job_id_stride: int = 1,
    ) -> None:
        self.check_settings(
            max_workers=max_workers,
            max_finished_jobs=max_finished_jobs,
            finished_job_ttl=finished_job_ttl,
            job_id_start=job_id_start,
            job_id_stride=job_id_stride,
        )
        self.service = service
        # Explicit None check: an empty EngineCache is falsy (__len__).
        self.engine_cache = (
            engine_cache if engine_cache is not None else EngineCache(cache_capacity)
        )
        self.max_workers = max_workers
        self.max_finished_jobs = max_finished_jobs
        self.finished_job_ttl = finished_job_ttl
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

    @staticmethod
    def check_settings(
        *,
        max_workers: int = DEFAULT_MAX_WORKERS,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
        finished_job_ttl: float | None = None,
        job_id_start: int = 1,
        job_id_stride: int = 1,
    ) -> None:
        """Raise what constructing a session with these settings would.

        Builds nothing, so a caller that hands the settings to another
        process can reject them first.  The cache capacity is checked
        by :meth:`EngineCache.check_capacity`.
        """
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
        if finished_job_ttl is not None and (
            not math.isfinite(finished_job_ttl) or finished_job_ttl <= 0.0
        ):
            raise BrokerError(
                "finished_job_ttl must be finite and > 0, got "
                f"{finished_job_ttl!r}"
            )

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "BrokerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down; in-flight jobs run to completion."""
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- synchronous API ---------------------------------------------------

    def recommend(self, request: RecommendationRequest) -> "RecommendationReport":
        """Serve one request through the cross-request engine cache.

        Same contract as the v1 ``BrokerService.recommend``: providers
        lacking telemetry are skipped, and if none can serve the request
        an :class:`InsufficientTelemetryError` lists the gaps.  Every
        provider's result carries its full option table, so this always
        searches (on cached engines and their result caches) and never
        answers from the wire replay memo.
        """
        from repro.broker.service import RecommendationReport

        return RecommendationReport(
            request_name=request.system_name,
            recommendations=tuple(
                self._each_provider(request, self._recommend_provider)
            ),
        )

    def _each_provider(self, request: RecommendationRequest, serve) -> list:
        """``serve(request, name)`` for each provider that can serve it.

        Providers lacking telemetry are skipped; if none is left, an
        :class:`InsufficientTelemetryError` lists the gaps.
        """
        served = []
        failures: list[str] = []
        for name in self._provider_names(request):
            try:
                served.append(serve(request, name))
            except InsufficientTelemetryError as exc:
                failures.append(f"{name}: {exc}")
        if not served:
            raise InsufficientTelemetryError(
                "no provider has enough telemetry to serve this request: "
                + "; ".join(failures)
            )
        return served

    def recommend_envelope(
        self,
        envelope: RecommendEnvelope,
        warm_keys: Mapping[str, _WarmKey] | None = None,
    ) -> ReportEnvelope:
        """Wire-in, wire-out: serve a request envelope.

        Tries :meth:`replay_envelope` first, unless ``warm_keys`` says
        the caller already tried: they are the keys a failed
        :meth:`replay` of this envelope returned, and the slow path
        reuses them instead of deriving them again.  The slow path serves each
        provider from its entry's replay memo or by a distilled search
        that assembles only the two recommended options; both give the
        bytes ``ReportEnvelope.from_report(recommend(...))`` would, with
        the same ``engine_stats``.  When the session
        traces and no span is active yet (direct session use, or a
        transport that did not open a root span), an envelope carrying
        a traceparent gets a ``request`` root span of its own, so trace
        continuity survives every entry point.
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
                    return self._serve_envelope(envelope, warm_keys)
        return self._serve_envelope(envelope, warm_keys)

    def _serve_envelope(
        self,
        envelope: RecommendEnvelope,
        warm_keys: Mapping[str, _WarmKey] | None,
    ) -> ReportEnvelope:
        if warm_keys is None:
            report, warm_keys = self.replay(envelope)
            if report is not None:
                return report
        return self._wire_report(envelope, warm_keys)

    def _wire_report(
        self,
        envelope: RecommendEnvelope,
        warm_keys: Mapping[str, _WarmKey] | None = None,
    ) -> ReportEnvelope:
        """An envelope's report, one :meth:`_report_provider` per provider.

        The slow path of :meth:`recommend_envelope` and the whole of a
        wire job: key derivation, then each provider's replay memo or a
        distilled search.  ``warm_keys`` are the keys a failed replay
        attempt derived, by provider name; a provider without one
        derives its own.
        """
        request = envelope.request
        keys = warm_keys or {}

        def serve(request: RecommendationRequest, name: str) -> ProviderReport:
            return self._report_provider(request, name, keys.get(name))

        return ReportEnvelope(
            request_name=request.system_name,
            providers=tuple(self._each_provider(request, serve)),
            request_id=envelope.request_id,
        )

    def replay_envelope(
        self, envelope: RecommendEnvelope
    ) -> ReportEnvelope | None:
        """A warm request's report from the replay memos, or None.

        No key derivation, no estimates, no search: each provider's
        warm key is ``(provider, request key, rate-card key, telemetry
        store, store generation, confidence threshold)``, all cheap to
        build.  The rate-card key is rebuilt on every call, so an
        in-place price edit misses; every telemetry mutation publishes
        a new generation, so fresher telemetry misses too.  The
        generation is read before anything else, matching the slow
        path, which reads it before its estimates (see
        :class:`~repro.broker.telemetry.TelemetryStore`).

        Returns None — and counts nothing — unless every provider the
        request names has a memoized serve under the request's
        strategy; the caller then serves it the slow way.
        Never blocks on an engine (see :meth:`EngineCache.replay`), so
        a server may call it on its event loop.  When a trace is
        active, a hit records one ``replay`` span.
        """
        return self.replay(envelope)[0]

    def replay(
        self, envelope: RecommendEnvelope
    ) -> tuple[ReportEnvelope | None, dict[str, _WarmKey]]:
        """:meth:`replay_envelope`, plus the warm keys it derived.

        On a miss, hand the keys to :meth:`recommend_envelope`, so the
        request derives each provider's key (and rate-card key) once,
        even when the miss is served on another thread.  The keys hold
        the generation read here, before the slow path's estimates.
        """
        tracer = self.tracer
        started = clock.perf_counter() if tracer is not None else 0.0
        request = envelope.request
        telemetry = self.service.knowledge_base.telemetry
        generation = telemetry.generation
        request_key = _request_key(request)
        providers = self.service.providers
        warm_keys = {}
        for name in self._provider_names(request):
            provider = providers.get(name)
            if provider is None:
                return None, warm_keys
            warm_keys[name] = self._warm_key(
                name, request_key, provider, telemetry, generation
            )
        replays = self.engine_cache.replay(
            tuple(warm_keys.values()), request.strategy
        )
        if replays is None:
            return None, warm_keys
        report = ReportEnvelope(
            request_name=request.system_name,
            providers=tuple(replays),
            request_id=envelope.request_id,
        )
        if tracer is not None:
            parent = tracer.current()
            if parent is not None:
                tracer.record(
                    "replay",
                    parent=parent,
                    start=started,
                    end=clock.perf_counter(),
                    attrs={"providers": str(len(replays))},
                )
        return report, warm_keys

    def _warm_key(
        self,
        provider_name: str,
        request_key: tuple,
        provider: "CloudProvider",
        telemetry: "TelemetryStore",
        generation: int,
    ) -> _WarmKey:
        """One provider's warm alias key (see :meth:`replay_envelope`)."""
        return _WarmKey(
            (
                provider_name,
                request_key,
                _rate_card_key(provider.rate_card),
                telemetry,
                generation,
                self.service.knowledge_base.min_failure_samples,
            )
        )

    # -- job lifecycle -----------------------------------------------------

    def submit(
        self,
        request: "RecommendationRequest | RecommendEnvelope",
        *,
        wire: bool = False,
    ) -> str:
        """Queue a request on the worker pool; returns its job id.

        A job keeps full option tables for :meth:`result`.  With
        ``wire=True`` it is served for :meth:`result_envelope` alone,
        as :meth:`recommend_envelope` serves: each provider from its
        replay memo or by a distilled search.  The server's job and
        batch routes submit this way.
        """
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
            job = BrokerJob(job_id=job_id, envelope=envelope, wire=wire)
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
            if job.wire:
                job.report = self._wire_report(job.envelope)
            else:
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
        job = self.job(job_id)
        if job.wire:
            raise BrokerError(
                f"job {job_id!r} was submitted with wire=True and holds no "
                "option tables; read it with result_envelope()"
            )
        return self._job_outcome(job, timeout)

    def _job_outcome(
        self, job: BrokerJob, timeout: float | None
    ) -> "RecommendationReport | ReportEnvelope":
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
        """Wire form of :meth:`result`; the only reader of a wire job."""
        job = self.job(job_id)
        report = self._job_outcome(job, timeout)
        if job.wire:
            return report
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
        how many shared models are cached and the rows across their
        tables (the state behind every cold contract's estimate), and
        the job table broken down by lifecycle state.  The server's
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
        models, rows = self.engine_cache.model_sizes()
        return {
            "engine_cache": self.engine_cache.stats.to_dict(),
            "engines_cached": len(self.engine_cache),
            "cluster_term_computations": (
                self.engine_cache.cluster_term_computations()
            ),
            "models_cached": models,
            "model_rows": rows,
            "jobs": dict(statuses),
            "jobs_evicted": evicted,
            "job_queue_depth": statuses[JOB_PENDING] + statuses[JOB_RUNNING],
        }

    # -- internals ---------------------------------------------------------

    def _provider_names(self, request: RecommendationRequest) -> tuple[str, ...]:
        return request.providers or tuple(sorted(self.service.providers))

    def _cache_entry(
        self,
        request: RecommendationRequest,
        provider_name: str,
        warm_key: _WarmKey | None = None,
    ) -> _CacheEntry:
        """Resolve (or build) the cached engine serving one provider.

        ``warm_key`` is the provider's key from a failed replay
        attempt of the same request; without one it is derived here.
        Either way it is aliased to the entry, and its rate-card key
        goes into the :class:`EngineKey`.

        Raises :class:`InsufficientTelemetryError` when the knowledge
        base cannot estimate the request's component kinds for this
        provider.
        """
        provider = self.service.provider(provider_name)
        tracer = self.tracer
        if warm_key is None:
            # Read before the estimates: a mutation racing this lookup
            # can only file its newer state under this older generation.
            telemetry = self.service.knowledge_base.telemetry
            warm_key = self._warm_key(
                provider_name,
                _request_key(request),
                provider,
                telemetry,
                telemetry.generation,
            )
        with maybe_span(tracer, "key", attrs={"provider": provider_name}):
            # One estimate per kind feeds P̂/f̂ (the topology) and t̂ (the
            # variant), so the key never mixes two telemetry epochs.
            estimates = self.service.reliability_estimates(
                request, provider_name
            )
            base_system = self.service.materialize_topology(
                request, provider, estimates
            )
            failover_estimates = {
                kind: estimate.failover_minutes
                for kind, estimate in estimates.items()
            }
            key = EngineKey.build(
                provider_name,
                base_system,
                request.contract,
                warm_key.rate_card,
                failover_minutes=failover_estimates,
                extended_catalog=request.extended_catalog,
            )

        def build_model() -> EvaluationModel:
            registry = registry_for_provider(
                provider,
                failover_minutes=failover_estimates,
                extended=request.extended_catalog,
            )
            return EvaluationModel(
                CandidateSpace(base_system.strip_ha(), registry),
                LaborRate(provider.rate_card.labor_rate_per_hour),
                table={},
            )

        def build_engine() -> EvaluationEngine:
            # The factory runs on the requesting thread under the entry
            # lock, so this span nests inside cache_lookup: a cache
            # miss binds the contract to the system's shared model, and
            # only the system's first contract builds that model (the
            # n*k cluster-term precompute).
            with maybe_span(tracer, "terms", attrs={"provider": provider_name}):
                model = self.engine_cache.model(key.model_key(), build_model)
                problem = OptimizationProblem(
                    base_system=base_system,
                    registry=model.space.registry,
                    contract=request.contract,
                    labor_rate=model.labor_rate,
                )
                return EvaluationEngine(problem, model=model)

        with maybe_span(
            tracer, "cache_lookup", attrs={"provider": provider_name}
        ):
            entry = self.engine_cache.entry(key, build_engine)
        self.engine_cache.alias(warm_key, entry)
        return entry

    def _recommend_provider(
        self, request: RecommendationRequest, name: str
    ) -> "ProviderRecommendation":
        """One provider's full-table recommendation, via the engine cache."""
        from repro.broker.service import ProviderRecommendation

        entry = self._cache_entry(request, name)
        with entry.lock:
            result, stats, _ = self._search(entry, request, name, keep_options=True)
        return ProviderRecommendation(
            provider_name=name,
            base_system=entry.engine.problem.base_system,
            result=result,
            engine_stats=stats,
        )

    def _report_provider(
        self,
        request: RecommendationRequest,
        name: str,
        warm_key: _WarmKey | None = None,
    ) -> ProviderReport:
        """One provider's wire section, via the engine cache.

        Answered from the entry's replay memo when it holds one, else
        by a distilled search (``keep_options=False``), which assembles
        only the two options the report reads.  A pure replay fills
        the memo (see :class:`_CacheEntry`).
        """
        entry = self._cache_entry(request, name, warm_key)
        memo_key = request.strategy
        with entry.lock:
            report = entry.replays.get(memo_key)
            if report is not None:
                with maybe_span(
                    self.tracer,
                    "evaluate",
                    attrs={**self._evaluate_attrs(request, name), "memo": "hit"},
                ):
                    self.engine_cache.count_replay()
                return report
            result, stats, first_service = self._search(
                entry, request, name, keep_options=False
            )
            report = ProviderReport.from_result(
                name, result, engine_stats=stats.to_dict()
            )
            if (
                not first_service
                and stats.incremental_combines == 0
                and stats.cache_hits == stats.candidate_evaluations
            ):
                entry.replays[memo_key] = report
        return report

    def _evaluate_attrs(
        self, request: RecommendationRequest, name: str
    ) -> dict[str, str]:
        return {"provider": name, "strategy": request.strategy}

    def _search(
        self,
        entry: _CacheEntry,
        request: RecommendationRequest,
        name: str,
        *,
        keep_options: bool,
    ) -> tuple[OptimizationResult, EngineStats, bool]:
        """Run the request's strategy on an entry's engine.

        The caller holds ``entry.lock``: engines are single-consumer,
        and a cache hit may serve the search from a different worker
        thread later.  Returns the result, this search's engine stats
        and whether it was the engine's first service.
        """
        from repro.broker.service import _STRATEGY_FUNCTIONS

        engine = entry.engine
        before = engine.stats.snapshot()
        with maybe_span(
            self.tracer, "evaluate", attrs=self._evaluate_attrs(request, name)
        ):
            result = _STRATEGY_FUNCTIONS[request.strategy](
                engine.problem, engine=engine, keep_options=keep_options
            )
        after = engine.stats.snapshot()
        first_service = entry.unserved
        entry.unserved = False
        return result, _request_stats(before, after, first_service), first_service
