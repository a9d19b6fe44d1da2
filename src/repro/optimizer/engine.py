"""Shared, cached, incremental candidate evaluation (the Eq. 6 hot path).

Every optimizer strategy ultimately evaluates candidates from the same
``k^n`` space, and the naive path rebuilds a full :class:`SystemTopology`
and re-runs the entire availability model and TCO computation for every
single candidate.  The :class:`EvaluationEngine` exploits the model's
structure instead: Eq. 1-5 factor into per-cluster terms, so the engine

1. precomputes one :class:`~repro.availability.model.ClusterTerms` and
   :class:`~repro.cost.tco.ClusterCostTerms` per (cluster, technology)
   pairing — ``n * k`` cluster-level computations per problem;
2. evaluates each candidate by recombining the ``n`` cached factor sets
   in O(n), bit-identical to the direct evaluation (the recombination
   performs the same float operations in the same order);
3. memoizes finished :class:`EvaluatedOption`s keyed by their
   :data:`~repro.optimizer.space.ChoiceNames`, so searches restarted
   over the same problem (pruned after brute force, branch-and-bound
   re-runs, advisor what-if sweeps) never evaluate a candidate twice.

The ``mode="direct"`` fallback routes evaluation through the legacy
full-topology path (:func:`evaluate_candidate_direct`) — same results,
useful for equivalence testing and as an escape hatch.

Batch evaluation (:meth:`EvaluationEngine.evaluate_many` and everything
built on it) runs on a pluggable **evaluation backend**:

- ``"serial"`` (default) evaluates inline on the calling thread;
- ``"process"`` ships chunks to a
  :class:`~concurrent.futures.ProcessPoolExecutor` of long-lived
  workers.  Workers hold the pickled per-(cluster, technology) term
  tables of every engine they serve, keyed by engine uid and fetched
  once per (worker, engine) pairing through the pool registry's table
  channel, so chunks carry only ``(option_id, indices)`` pairs — no
  per-chunk re-pickling of the precomputes.  Workers recombine the same
  cached :class:`~repro.availability.model.ClusterTerms` /
  :class:`~repro.cost.tco.ClusterCostTerms` values with the same float
  operations in the same order as the in-process combine, so results
  are bit-identical;
- ``"vector"`` gathers each chunk's candidate index tuples into
  per-cluster column arrays and runs the Eq. 1-5 math with **numpy**
  vectorized across the candidate axis, looping over the small cluster
  axis in exactly the order the scalar combine uses.  float64
  elementwise operations are IEEE-correctly-rounded like Python floats
  and every accumulation is explicit (never ``np.sum``'s pairwise
  reassociation), so vector results are bit-identical to serial too.
  numpy is an optional extra (``pip install .[vector]``); without it
  the backend degrades to serial evaluation with a RuntimeWarning.

Worker pools are **not** owned by individual engines: the process
backend leases ref-counted executors from a shared
:class:`~repro.optimizer.pools.PoolRegistry` (by default the
process-global one), so N live engines — including every engine a
broker's cross-request cache retains — share one process pool whose
workers evaluate for all of them.  The last engine to close a leased
pool shuts it down deterministically.

Every backend yields results in submission order, making output
deterministic regardless of parallelism.  The ``REPRO_BACKEND``
environment variable overrides the *default* backend (explicit
``backend=`` arguments always win), which is how CI smokes the process
and vector paths across the whole suite.

An engine has **one consumer at a time**.  The broker's engine cache
serializes every evaluation on a cached engine through the entry's
lock, and no backend calls back into the engine from another thread,
so cache and stats mutations take no lock of their own.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.availability.model import (
    AvailabilityReport,
    ClusterAvailability,
    ClusterTerms,
    availability_values_from_terms,
    cluster_availability_terms,
    evaluate_availability,
)
from repro.cost.rates import LaborRate
from repro.cost.tco import (
    ClusterCostTerms,
    TCOBreakdown,
    assemble_breakdown,
    cluster_cost_terms,
    compute_tco,
    tco_values_from_terms,
)
from repro.errors import EngineBackendError, OptimizerError, ReproError
from repro.obs import clock
from repro.optimizer.pools import PoolRegistry, default_registry, worker_payload
from repro.optimizer.result import EvaluatedOption, assemble_option
from repro.optimizer.space import (
    CandidateSpace,
    ChoiceNames,
    OptimizationProblem,
)
from repro.sla.contract import Contract
from repro.topology.cluster import ClusterSpec
from repro.topology.system import SystemTopology

#: Supported evaluation modes.
ENGINE_MODES = ("incremental", "direct")

#: Supported evaluation backends for batch entry points.
ENGINE_BACKENDS = ("serial", "process", "vector")

#: Backends that evaluate from shipped/gathered term tables and therefore
#: require ``mode="incremental"`` (direct mode builds full topologies).
TERM_TABLE_BACKENDS = ("process", "vector")

#: Environment variable naming the default backend (CI smoke hook).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Monotonic engine ids — keys for worker-held term tables in shared
#: pools.  Never reused, so a stale worker cache entry can never alias a
#: younger engine's tables.
_ENGINE_UIDS = itertools.count(1)

#: Shared no-op context manager for untraced backend chunks.
#: nullcontext is reusable and reentrant, so one instance serves every
#: block without a per-block allocation.
_NULL_SPAN = contextlib.nullcontext()


def _import_numpy():
    """The optional numpy dependency, or ``None`` (patchable in tests)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def resolve_backend(backend: str | None, *, mode: str = "incremental") -> str:
    """Resolve a backend request to a concrete :data:`ENGINE_BACKENDS` name.

    ``None`` falls back to the :data:`BACKEND_ENV_VAR` environment
    variable (empty string = unset), then to ``"serial"``.  The env-var
    default never forces a
    term-table backend (:data:`TERM_TABLE_BACKENDS`) onto a
    ``mode="direct"`` engine — direct mode evaluates full topologies,
    which neither worker processes nor the vectorized combine can do
    from term tables — whereas an *explicit* such request with direct
    mode is rejected at engine construction.
    """
    if backend is None:
        env = os.environ.get(BACKEND_ENV_VAR) or None
        if env is not None and env not in ENGINE_BACKENDS:
            raise OptimizerError(
                f"invalid {BACKEND_ENV_VAR}={env!r}; valid: {ENGINE_BACKENDS}"
            )
        if env in TERM_TABLE_BACKENDS and mode == "direct":
            env = None
        backend = env if env is not None else "serial"
    if backend not in ENGINE_BACKENDS:
        raise OptimizerError(
            f"unknown evaluation backend {backend!r}; valid: {ENGINE_BACKENDS}"
        )
    return backend


def evaluate_candidate_direct(
    problem: OptimizationProblem,
    space: CandidateSpace,
    option_id: int,
    indices: tuple[int, ...],
) -> EvaluatedOption:
    """Instantiate and fully evaluate one candidate permutation.

    This is the reference (pre-engine) evaluation path: build the whole
    topology, run the availability model end to end, run the TCO model
    end to end.  The engine's incremental path is tested bit-identical
    against it.
    """
    system = space.instantiate(indices)
    availability = evaluate_availability(system)
    tco = compute_tco(system, problem.contract, problem.labor_rate)
    return EvaluatedOption(
        option_id=option_id,
        choice_names=space.choice_names(indices),
        system=system,
        availability=availability,
        tco=tco,
        meets_sla=problem.contract.sla.is_met_by(availability.uptime_probability),
        cluster_names=space.bare_system.cluster_names,
    )


@dataclass(frozen=True, slots=True)
class ChoiceProfile:
    """Cached facts about one (cluster, technology) pairing.

    ``ha_cost`` is the pairing's full monthly ``C_HA`` share (infra plus
    priced labor) — the branch-and-bound lower bounds consume it
    directly.
    """

    index: int
    name: str
    applied: ClusterSpec
    availability: ClusterTerms
    cost: ClusterCostTerms
    ha_cost: float


@dataclass
class EngineStats:
    """Work accounting for one engine instance.

    Attributes
    ----------
    candidate_evaluations:
        Total evaluation requests answered (hits + misses).
    cache_hits:
        Requests answered from the ``ChoiceNames``-keyed result cache.
    incremental_combines:
        Cache misses answered by the O(n) term recombination.
    topology_evaluations:
        Cache misses answered by the legacy full-topology path (only in
        ``mode="direct"``).  The whole point of the engine is keeping
        this at zero.
    cluster_term_computations:
        Per-(cluster, technology) precomputations done at construction
        (``n * k`` — the only cluster-level availability math the
        incremental mode ever runs).
    """

    candidate_evaluations: int = 0
    cache_hits: int = 0
    incremental_combines: int = 0
    topology_evaluations: int = 0
    cluster_term_computations: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of evaluation requests served from the cache."""
        if self.candidate_evaluations == 0:
            return 0.0
        return self.cache_hits / self.candidate_evaluations

    def snapshot(self) -> "EngineStats":
        """A point-in-time copy — engines mutate their live stats."""
        return replace(self)

    def to_dict(self) -> dict[str, int]:
        """JSON-safe counters (wire envelopes, cache dashboards)."""
        return {
            "candidate_evaluations": self.candidate_evaluations,
            "cache_hits": self.cache_hits,
            "incremental_combines": self.incremental_combines,
            "topology_evaluations": self.topology_evaluations,
            "cluster_term_computations": self.cluster_term_computations,
        }

    def describe(self) -> str:
        """One-line summary for CLI/benchmark output."""
        return (
            f"evaluations={self.candidate_evaluations} "
            f"(cache hits {self.cache_hits}, "
            f"combines {self.incremental_combines}, "
            f"full-topology {self.topology_evaluations}; "
            f"{self.cluster_term_computations} cluster terms precomputed)"
        )


# -- evaluation backends ----------------------------------------------------

@dataclass(frozen=True)
class _ProcessPrecompute:
    """The picklable slice of an engine a worker process needs.

    Shipped to each worker exactly once via the pool initializer;
    afterwards chunks carry only ``(option_id, indices)`` pairs.  The
    tables hold the same :class:`ClusterTerms` / :class:`ClusterCostTerms`
    instances the parent's profiles hold (floats pickle exactly), and
    :meth:`evaluate` performs the same operations in the same order as
    :meth:`EvaluationEngine._combine`, so worker results are
    bit-identical to in-process evaluation.
    """

    system_name: str
    cluster_names: tuple[str, ...]
    availability_terms: tuple[tuple[ClusterTerms, ...], ...]
    cost_terms: tuple[tuple[ClusterCostTerms, ...], ...]
    contract: Contract
    labor_rate: LaborRate

    @classmethod
    def from_engine(cls, engine: "EvaluationEngine") -> "_ProcessPrecompute":
        bare = engine.space.bare_system
        return cls(
            system_name=bare.name,
            cluster_names=bare.cluster_names,
            availability_terms=tuple(
                tuple(profile.availability for profile in row)
                for row in engine.profiles
            ),
            cost_terms=tuple(
                tuple(profile.cost for profile in row)
                for row in engine.profiles
            ),
            contract=engine.problem.contract,
            labor_rate=engine.problem.labor_rate,
        )

    def evaluate(self, indices: tuple[int, ...]) -> tuple:
        """One candidate's evaluation as a flat float payload.

        Runs the *shared* Eq. 1-5 value helpers
        (:func:`availability_values_from_terms`,
        :func:`tco_values_from_terms`) — the same functions the
        in-process combine uses, in the same order, so every float is
        bit-identical — and returns
        ``(breakdown, failover, contributions, tco_values, meets_sla)``
        as plain tuples.  Pickling nested (slotted) dataclasses costs a
        state dict per object; flat primitive tuples keep the per-
        candidate IPC cost an order of magnitude lower, which is what
        lets the process backend win wall-clock.  The parent rebuilds
        report objects lazily from the exact same values.
        """
        if len(indices) != len(self.availability_terms):
            raise OptimizerError(
                f"expected {len(self.availability_terms)} choice indices, "
                f"got {len(indices)}"
            )
        breakdown, failover, contributions = availability_values_from_terms(
            tuple(
                self.availability_terms[i][choice]
                for i, choice in enumerate(indices)
            )
        )
        uptime = 1.0 - (breakdown + failover)
        tco_values = tco_values_from_terms(
            tuple(self.cost_terms[i][choice] for i, choice in enumerate(indices)),
            uptime,
            self.contract,
            self.labor_rate,
        )
        return (
            breakdown,
            failover,
            tuple(contributions),
            tco_values,
            self.contract.sla.is_met_by(uptime),
        )


def _process_worker_chunk(
    uid: int, chunk: list[tuple[int, tuple[int, ...]]], traced: bool = False
):
    """Evaluate one chunk of cache misses inside a worker process.

    Workers in a shared pool serve many engines; ``uid`` selects which
    engine's published term tables to recombine (fetched through the
    pool registry's table channel on first sight, locally cached after).

    With ``traced`` the return value becomes ``(payloads, seconds,
    pid)`` — the worker ships its compute *duration*, never timestamps,
    because ``perf_counter`` zero points are not comparable across
    processes; the parent re-anchors it when splicing the chunk span.
    The untraced call shape (and its pickled bytes) is unchanged, so
    tracing-off behaviour is byte-identical to before.
    """
    state = worker_payload(uid)
    if not traced:
        return [state.evaluate(indices) for _, indices in chunk]
    started = clock.perf_counter()
    payloads = [state.evaluate(indices) for _, indices in chunk]
    return payloads, clock.perf_counter() - started, os.getpid()


class SerialBackend:
    """Inline evaluation on the calling thread (the default)."""

    name = "serial"

    def evaluate_stream(
        self,
        engine: "EvaluationEngine",
        enumerated: Iterable[tuple[int, tuple[int, ...]]],
    ) -> Iterator[EvaluatedOption]:
        for option_id, indices in enumerated:
            yield engine.evaluate(option_id, indices)

    def close(self) -> None:
        """Nothing to release."""


def _plan_block(
    engine: "EvaluationEngine", block: list[tuple[int, tuple[int, ...]]]
) -> tuple[list, list]:
    """Probe the result cache for one chunk, in submission order.

    Returns ``(plan, misses)``: ``plan`` holds the chunk's options with
    ``None`` placeholders where an evaluated payload must be spliced in;
    ``misses`` carries the ``(option_id, indices, names)`` bookkeeping
    for those placeholders, in the same order they must be evaluated.
    Shared by the process backend (misses travel to pool workers) and
    the vector backend (misses are gathered into numpy columns).
    """
    if not engine.cache:
        # Cache off: every candidate is a miss and carries no cache key.
        # One stats bump for the whole chunk replaces per-candidate
        # probes — the difference is measurable at 100k+ candidates per
        # sweep.
        engine.stats.candidate_evaluations += len(block)
        return [None] * len(block), [
            (option_id, indices, None) for option_id, indices in block
        ]
    plan: list = []
    misses: list = []
    for option_id, indices in block:
        names, cached = engine._cache_probe(option_id, indices)
        if cached is not None:
            plan.append(cached)
        else:
            plan.append(None)
            misses.append((option_id, indices, names))
    return plan, misses


def _splice_payloads(
    engine: "EvaluationEngine", plan: list, misses: list, payloads: list
) -> list:
    """Fill a plan's placeholders with evaluated payloads, in order.

    Options are assembled first, then stats and cache admissions land
    once per chunk instead of once per candidate.
    """
    build = engine._build_option
    if len(misses) == len(plan):
        # All-miss chunk — the norm for cache-off sweeps and cold
        # catalogs.  Skip the placeholder scan and build straight from
        # the miss list; with the cache off there is nothing to admit,
        # so the chunk builds no side lists.
        plan[:] = [
            build(option_id, indices, names, *payload)
            for (option_id, indices, names), payload in zip(misses, payloads)
        ]
        engine.stats.incremental_combines += len(plan)
        if engine.cache:
            results = engine._results
            for (_, _, names), option in zip(misses, plan):
                results.setdefault(names, option)
        return plan
    filled = iter(zip(misses, payloads))
    admitted: list = []
    for position, slot in enumerate(plan):
        if slot is None:
            (option_id, indices, names), payload = next(filled)
            breakdown, failover, contributions, tco_values, meets = payload
            option = build(
                option_id, indices, names,
                breakdown, failover, contributions, tco_values, meets,
            )
            plan[position] = option
            admitted.append((names, option))
    engine.stats.incremental_combines += len(admitted)
    if engine.cache:
        results = engine._results
        for names, option in admitted:
            results.setdefault(names, option)
    return plan


@dataclass
class _ProcessToken:
    """One submitted chunk: cache hits resolved in-parent, misses in-pool.

    ``plan``/``misses`` come from :func:`_plan_block`; ``future`` is the
    pool-side evaluation of the misses (``None`` for all-hit chunks).
    ``traced`` is ``(tracer, parent context, submit perf_counter)``
    when the chunk was submitted inside an active span — contextvars do
    not cross the pool, so the parent context rides the token and the
    chunk span is recorded at collect time.
    """

    plan: list
    misses: list
    future: object | None
    traced: tuple | None = None


class ProcessBackend:
    """Chunked evaluation on a pool of long-lived worker processes.

    The input stream is cut into ``engine.chunk_size`` blocks submitted
    to the pool with a bounded in-flight window (the stream is never
    drained eagerly, so huge candidate spaces stay O(window) in memory),
    and chunk results are yielded strictly in submission order — the
    output sequence is identical to serial evaluation.

    The parent resolves result-cache hits (and counts stats) at
    submission time; only cache misses travel to the workers, as bare
    ``(option_id, indices)`` pairs tagged with the engine's uid.  The
    pool is **leased**, not owned: on first use the backend acquires a
    ref-counted :class:`~repro.optimizer.pools.PoolHandle` from the
    engine's :class:`~repro.optimizer.pools.PoolRegistry` — its workers
    may be serving several engines at once — and *publishes* the
    engine's pickled term tables through the registry's table channel;
    workers fetch-and-cache them keyed by uid on first sight.
    :meth:`close` retracts the tables and releases the lease, and the
    registry shuts the pool down when the last holder leaves.

    Workers recombine those tables and return ``(availability, tco,
    meets_sla)`` payloads; the parent splices them back into submission
    order, wraps them into lazy-topology :class:`EvaluatedOption`s and
    feeds the shared result cache — so a process-backed engine's
    cache/stats behaviour is identical to the serial engine's, and
    replayed streams are pure cache hits.

    A worker failure surfaces as :class:`~repro.errors.EngineBackendError`
    (or the original :class:`~repro.errors.ReproError`) and *invalidates*
    the lease so the next stream — from this engine or any sharing
    engine — starts from a fresh pool instead of a broken one.  On
    platforms without working ``fork``/``spawn`` support the backend
    degrades to serial evaluation with a :class:`RuntimeWarning`.
    """

    name = "process"

    def __init__(self) -> None:
        self._handle = None
        self._degraded = False
        self._published: tuple[PoolRegistry, int] | None = None
        # Guards the lease against a close() racing the consumer (cache
        # eviction and session teardown close from other threads).
        self._pool_lock = threading.Lock()

    @property
    def _pool(self):
        """The leased executor, or ``None`` (kept for introspection)."""
        handle = self._handle
        return None if handle is None else handle.pool

    def _ensure_pool(self, engine: "EvaluationEngine"):
        with self._pool_lock:
            if self._degraded:
                return None
            if self._handle is None:
                workers = engine.max_workers or os.cpu_count() or 1
                try:
                    handle = engine.pool_registry.acquire(self.name, workers)
                except (NotImplementedError, ImportError, OSError,
                        PermissionError, ValueError) as exc:
                    warnings.warn(
                        f"{self.name} evaluation backend unavailable on this "
                        f"platform ({exc}); degrading to serial evaluation",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    self._degraded = True
                    return None
                self._handle = handle
                try:
                    engine.pool_registry.publish(
                        engine.uid, _ProcessPrecompute.from_engine(engine)
                    )
                except BaseException:
                    self._handle = None
                    handle.release()
                    raise
                self._published = (engine.pool_registry, engine.uid)
            return self._handle.pool

    def evaluate_stream(
        self,
        engine: "EvaluationEngine",
        enumerated: Iterable[tuple[int, tuple[int, ...]]],
    ) -> Iterator[EvaluatedOption]:
        pool = self._ensure_pool(engine)
        if pool is None:
            yield from SerialBackend().evaluate_stream(engine, enumerated)
            return
        max_in_flight = 2 * getattr(pool, "_max_workers", 1)
        pending: deque = deque()
        chunk_size = engine.chunk_size
        blocks = iter(enumerated)
        while block := list(itertools.islice(blocks, chunk_size)):
            pending.append(self._submit(engine, pool, block))
            while len(pending) >= max_in_flight:
                yield from self._collect(engine, pending.popleft())
        while pending:
            yield from self._collect(engine, pending.popleft())

    def _worker_failure(self, exc: Exception) -> EngineBackendError:
        """Wrap a pool failure and invalidate the lease for every holder."""
        self._release_pool(invalidate=True)
        return EngineBackendError(
            f"{self.name} evaluation backend worker failed: "
            f"{type(exc).__name__}: {exc}"
        )

    def _release_pool(self, *, invalidate: bool = False) -> None:
        with self._pool_lock:
            handle, self._handle = self._handle, None
            published, self._published = self._published, None
        if handle is not None:
            # Retract before releasing: the registry's table channel
            # lives only while process-pool leases are outstanding.
            if published is not None:
                registry, uid = published
                registry.retract(uid)
            handle.release(invalidate=invalidate)

    def close(self) -> None:
        """Release the pool lease; idempotent, re-acquired lazily.

        The shared executor itself shuts down only when the last engine
        leasing it closes.
        """
        self._release_pool()

    def _submit(self, engine: "EvaluationEngine", pool, block):
        plan, misses = _plan_block(engine, block)
        future = None
        traced = None
        if misses:
            rows = [(option_id, indices) for option_id, indices, _ in misses]
            tracer = engine.tracer
            ctx = tracer.current() if tracer is not None else None
            if ctx is None:
                future = pool.submit(_process_worker_chunk, engine.uid, rows)
            else:
                future = pool.submit(
                    _process_worker_chunk, engine.uid, rows, True
                )
                traced = (tracer, ctx, clock.perf_counter())
        return _ProcessToken(
            plan=plan, misses=misses, future=future, traced=traced
        )

    def _collect(self, engine: "EvaluationEngine", token) -> list[EvaluatedOption]:
        if token.future is None:
            return token.plan
        try:
            payloads = token.future.result()
        except ReproError:
            # Library errors pickled back from the worker keep their type.
            raise
        except Exception as exc:
            raise self._worker_failure(exc) from exc
        if token.traced is not None:
            payloads = self._record_chunk_spans(token, payloads)
        return _splice_payloads(engine, token.plan, token.misses, payloads)

    @staticmethod
    def _record_chunk_spans(token: _ProcessToken, result) -> list:
        """Re-parent a traced chunk's worker timing onto the span tree.

        The chunk span covers submit→collect in the parent's clock; the
        worker's compute duration is anchored backwards from the collect
        time (clamped into the chunk window — worker and parent
        ``perf_counter`` readings are not directly comparable), so the
        nested worker span stays monotonic inside its parent.
        """
        payloads, worker_seconds, worker_pid = result
        tracer, ctx, submitted = token.traced
        collected = clock.perf_counter()
        chunk = tracer.record(
            "backend_chunk",
            parent=ctx,
            start=submitted,
            end=collected,
            attrs={"backend": "process", "rows": str(len(token.misses))},
        )
        tracer.record(
            "worker_evaluate",
            parent=chunk.context,
            start=max(submitted, collected - worker_seconds),
            end=collected,
            attrs={"worker_pid": str(worker_pid)},
        )
        return payloads


class VectorBackend:
    """Numpy-vectorized combine over candidate index arrays (in-process).

    Each chunk's cache misses are gathered into per-cluster index
    columns, and the Eq. 1-5 math runs vectorized **across the candidate
    axis** while looping over the small cluster/technology axis in
    exactly the order the scalar combine uses: explicit ``ones``/
    ``zeros`` accumulators multiplied/added one cluster at a time —
    never ``np.sum``/``np.prod``, whose pairwise reassociation would
    change rounding.  float64 elementwise operations are IEEE
    correctly-rounded exactly like Python float arithmetic, so every
    value is bit-identical to :class:`SerialBackend`; contract math
    (slippage, penalty, labor cost, SLA check) is vectorized end-to-end
    through the clauses' ``*_vector`` methods, which replay the scalar
    op order exactly — no per-candidate Python call survives in the
    combine.  Results are wrapped through the engine's
    worker-payload path, so cache and stats behaviour matches the
    process backend (and replays are pure hits).

    numpy is an optional extra (``pip install .[vector]``).  When it is
    missing, evaluation degrades to serial with a
    :class:`RuntimeWarning` — same contract as a pooled backend on a
    platform without worker support.  No pool is involved; the backend
    holds only per-engine column tables built once from the profiles.
    """

    name = "vector"

    def __init__(self) -> None:
        self._degraded = False
        self._numpy = None
        self._tables = None
        self._tables_uid: int | None = None

    def _ensure_numpy(self):
        if self._degraded:
            return None
        if self._numpy is None:
            numpy = _import_numpy()
            if numpy is None:
                warnings.warn(
                    "vector evaluation backend unavailable (numpy is not "
                    "installed; pip install .[vector]); degrading to "
                    "serial evaluation",
                    RuntimeWarning,
                    stacklevel=4,
                )
                self._degraded = True
                return None
            self._numpy = numpy
        return self._numpy

    def _column_tables(self, engine: "EvaluationEngine", np):
        """Per-cluster per-choice value columns, built once per engine.

        Row ``i`` holds six float64 arrays over cluster ``i``'s choices:
        availability up/active-up/failover-rate and cost infra/labor-
        hours/base — ``np.array`` conversion of Python floats is exact,
        and fancy-indexed gathers preserve bits, so the tables introduce
        no rounding of their own.
        """
        if self._tables is None or self._tables_uid != engine.uid:
            self._tables = tuple(
                (
                    np.array([p.availability.up_probability for p in row]),
                    np.array([p.availability.active_up_probability for p in row]),
                    np.array([p.availability.failover_rate for p in row]),
                    np.array([p.cost.ha_infra_cost for p in row]),
                    np.array([p.cost.ha_labor_hours for p in row]),
                    np.array([p.cost.base_infra_cost for p in row]),
                )
                for row in engine.profiles
            )
            self._tables_uid = engine.uid
        return self._tables

    def evaluate_stream(
        self,
        engine: "EvaluationEngine",
        enumerated: Iterable[tuple[int, tuple[int, ...]]],
    ) -> Iterator[EvaluatedOption]:
        np = self._ensure_numpy()
        if np is None:
            yield from SerialBackend().evaluate_stream(engine, enumerated)
            return
        tables = self._column_tables(engine, np)
        # Cut blocks with islice instead of a per-candidate append loop:
        # the enumeration is consumed in C, which matters at 100k+
        # candidates per sweep.
        chunk_size = engine.chunk_size
        pending = iter(enumerated)
        while block := list(itertools.islice(pending, chunk_size)):
            yield from self._evaluate_block(engine, np, tables, block)

    def _evaluate_block(
        self, engine: "EvaluationEngine", np, tables, block
    ) -> list:
        """Probe the cache per candidate, vector-evaluate the misses."""
        if not engine.cache:
            # Cache off: the whole block is fresh vector lanes, so skip
            # the placeholder plan and the per-miss bookkeeping tuples
            # entirely — stats, evaluation and assembly run straight off
            # the block.
            engine.stats.candidate_evaluations += len(block)
            rows = [indices for _, indices in block]
            payloads = self._block_payloads(engine, np, tables, rows)
            build = engine._build_option
            plan = [
                build(option_id, indices, None, *payload)
                for (option_id, indices), payload in zip(block, payloads)
            ]
            engine.stats.incremental_combines += len(plan)
            return plan
        plan, misses = _plan_block(engine, block)
        if misses:
            rows = [ind for _, ind, _ in misses]
            payloads = self._block_payloads(engine, np, tables, rows)
            _splice_payloads(engine, plan, misses, payloads)
        return plan

    def _block_payloads(self, engine: "EvaluationEngine", np, tables, rows):
        """Evaluate one block's index rows in one vector pass."""
        tracer = engine.tracer
        if tracer is None:
            # Untraced hot path: one attribute load and this check per
            # 1024-candidate block — no span/attrs construction at all.
            span = _NULL_SPAN
        else:
            span = tracer.child_span(
                "backend_chunk",
                attrs={"backend": "vector", "rows": str(len(rows))},
            )
        try:
            with span:
                return self._vector_payloads(engine, np, tables, rows)
        except ReproError:
            raise
        except Exception as exc:
            raise EngineBackendError(
                f"vector evaluation backend failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _vector_arrays(self, engine, np, tables, index_rows):
        """Eq. 1-5 column arrays for a block of candidate index rows.

        Mirrors :func:`availability_values_from_terms` and
        :func:`tco_values_from_terms` operation for operation with the
        candidate axis vectorized: ``1.0 * x`` and ``0.0 + x`` are exact
        in IEEE arithmetic, so seeding the accumulators with
        ``ones``/``zeros`` reproduces the scalar helpers' ``1.0``/``0``
        starting values bit-for-bit.
        """
        n = engine.space.cluster_count
        # np.array rejects ragged rows outright, so a single shape check
        # on the converted block replaces a per-candidate len() loop.
        try:
            idx = np.array(index_rows, dtype=np.intp)
        except ValueError as exc:
            raise OptimizerError(
                f"expected {n} choice indices per candidate: {exc}"
            ) from exc
        if idx.ndim != 2 or idx.shape[1] != n:
            width = idx.shape[1] if idx.ndim == 2 else "ragged"
            raise OptimizerError(
                f"expected {n} choice indices, got {width}"
            )
        count = idx.shape[0]
        cols = [idx[:, i] for i in range(n)]

        up = np.ones(count)
        for i in range(n):
            up = up * tables[i][0][cols[i]]
        contributions = []
        for i in range(n):
            others_quiet = np.ones(count)
            for j in range(n):
                if j != i:
                    others_quiet = others_quiet * tables[j][1][cols[j]]
            contributions.append(tables[i][2][cols[i]] * others_quiet)
        failover = np.zeros(count)
        for contribution in contributions:
            failover = failover + contribution
        breakdown = 1.0 - up
        uptime = 1.0 - (breakdown + failover)

        infra = np.zeros(count)
        labor_hours = np.zeros(count)
        base = np.zeros(count)
        for i in range(n):
            infra = infra + tables[i][3][cols[i]]
            labor_hours = labor_hours + tables[i][4][cols[i]]
            base = base + tables[i][5][cols[i]]

        # Contract math stays on the candidate axis too: slippage,
        # penalty and labor-cost vectors come from the clauses' own
        # ``*_vector`` methods, which perform the scalar helpers' float
        # operations in the same order (see repro.sla.penalty).
        contract = engine.problem.contract
        labor_rate = engine.problem.labor_rate
        slippage = contract.expected_slippage_hours_vector(uptime)
        penalty = contract.penalty.monthly_penalty_vector(slippage)
        labor_cost = labor_rate.monthly_cost_vector(labor_hours)
        meets = contract.sla.is_met_by_vector(uptime)
        return (
            breakdown, failover, contributions, uptime,
            infra, labor_cost, penalty, base, slippage, meets,
        )

    def _vector_payloads(self, engine, np, tables, index_rows):
        """Flat worker-style payloads for a block of cache misses."""
        if not index_rows:
            return []
        (
            breakdown, failover, contributions, uptime,
            infra, labor_cost, penalty, base, slippage, meets,
        ) = self._vector_arrays(engine, np, tables, index_rows)

        # ``tolist()`` converts float64 to Python floats bit-exactly (and
        # payload floats must pickle as plain floats); transposing the
        # contribution columns with ``zip`` keeps the per-candidate loop
        # free of numpy scalar indexing, which would otherwise dominate.
        contribution_rows = zip(*(c.tolist() for c in contributions))
        payloads = []
        for (
            breakdown_k,
            failover_k,
            up_k,
            infra_k,
            labor_k,
            penalty_k,
            base_k,
            slippage_k,
            meets_k,
            contribs_k,
        ) in zip(
            breakdown.tolist(),
            failover.tolist(),
            uptime.tolist(),
            infra.tolist(),
            labor_cost.tolist(),
            penalty.tolist(),
            base.tolist(),
            slippage.tolist(),
            meets.tolist(),
            contribution_rows,
        ):
            payloads.append((
                breakdown_k,
                failover_k,
                contribs_k,
                (infra_k, labor_k, penalty_k, base_k, up_k, slippage_k),
                meets_k,
            ))
        return payloads

    def sweep_distilled(self, engine: "EvaluationEngine", enumerated, accumulator) -> None:
        """Distilled exhaustive sweep: rank whole blocks in bulk.

        The per-candidate streaming path assembles an
        :class:`EvaluatedOption` for every candidate even when the
        consumer only wants the two distilled recommendations.  Here
        each block is ranked with numpy — argmin over the Eq. 5 totals
        and the (penalty, ha-cost) lexicographic minimum, in exactly
        the scalar fold's tie-break order — and only the block winners
        are assembled and folded, so no per-candidate Python call
        survives the combine.  Results are bit-identical to the scalar
        fold (same floats compared under the same rules; argmin's
        first-occurrence tie-break equals the fold's lowest-id rule
        because paper-order enumeration ascends by option id).

        Falls back to the generic per-candidate fold when numpy is
        missing or when the result cache is on (admissions need every
        option).
        """
        np = self._ensure_numpy()
        if np is None or engine.cache:
            add = accumulator.add
            for option in self.evaluate_stream(engine, enumerated):
                add(option)
            return
        tables = self._column_tables(engine, np)
        chunk_size = engine.chunk_size
        pending = iter(enumerated)
        while block := list(itertools.islice(pending, chunk_size)):
            self._distill_block(engine, np, tables, block, accumulator)

    def _distill_block(self, engine, np, tables, block, accumulator) -> None:
        """Rank one block's candidates and fold its winners."""
        engine.stats.candidate_evaluations += len(block)
        rows = [indices for _, indices in block]
        try:
            (
                breakdown, failover, contributions, uptime,
                infra, labor_cost, penalty, base, slippage, meets,
            ) = self._vector_arrays(engine, np, tables, rows)
        except ReproError:
            raise
        except Exception as exc:
            raise EngineBackendError(
                f"vector evaluation backend failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        # Same float ops, same order, as the accumulator's scalar fold:
        # ha_cost = infra + labor, total = ha_cost + penalty.
        ha_cost = infra + labor_cost
        totals = ha_cost + penalty
        best_i = int(np.argmin(totals))
        min_penalty_rows = np.flatnonzero(penalty == penalty.min())
        if min_penalty_rows.shape[0] == 1:
            penalty_i = int(min_penalty_rows[0])
        else:
            penalty_i = int(
                min_penalty_rows[np.argmin(ha_cost[min_penalty_rows])]
            )
        winners = []
        build = engine._build_option
        # Ascending order keeps the fold's lowest-id tie-breaks exact.
        for i in sorted({best_i, penalty_i}):
            option_id, indices = block[i]
            winners.append(build(
                option_id, indices, None,
                float(breakdown[i]),
                float(failover[i]),
                tuple(float(c[i]) for c in contributions),
                (
                    float(infra[i]), float(labor_cost[i]),
                    float(penalty[i]), float(base[i]),
                    float(uptime[i]), float(slippage[i]),
                ),
                bool(meets[i]),
            ))
        engine.stats.incremental_combines += len(winners)
        accumulator.fold_winners(winners, evaluated=len(block))

    def close(self) -> None:
        """Nothing pooled to release; column tables die with the backend."""


_BACKEND_TYPES = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "vector": VectorBackend,
}


@dataclass
class EvaluationEngine:
    """Evaluates candidates of one problem from per-cluster caches.

    Parameters
    ----------
    problem:
        The optimization problem this engine serves.  All cached results
        are valid only for this exact problem instance; strategies guard
        against accidental cross-problem reuse.
    mode:
        ``"incremental"`` (default) recombines cached per-cluster terms
        in O(n); ``"direct"`` falls back to full-topology evaluation.
        Both produce bit-identical options.
    cache:
        Memoize finished options keyed by ``ChoiceNames`` so repeated
        searches over the same problem never re-evaluate a candidate.
        All cache mutation happens on the consuming thread, and an
        engine must not have :meth:`evaluate` called from multiple
        threads concurrently (the broker's engine cache serializes
        through its entry locks).
    backend:
        Which of :data:`ENGINE_BACKENDS` drives :meth:`evaluate_many`
        batches (``"serial"``, ``"process"`` or ``"vector"``).  ``None``
        resolves through :func:`resolve_backend` (environment default,
        then serial).  Rebind a live engine with
        :meth:`set_backend`; per-candidate :meth:`evaluate` calls always
        run in-process regardless of backend.
    max_workers / chunk_size:
        Pool sizing knobs for the process backend (the vector backend
        uses ``chunk_size`` as its gather width).
    pool_registry:
        Where the process backend leases its executors.  ``None``
        (default) means the process-global
        :func:`~repro.optimizer.pools.default_registry`, so engines
        share pools automatically; pass a private
        :class:`~repro.optimizer.pools.PoolRegistry` to isolate a pool
        population.
    """

    problem: OptimizationProblem
    mode: str = "incremental"
    cache: bool = True
    max_workers: int | None = None
    chunk_size: int = 1024
    backend: str | None = None
    pool_registry: PoolRegistry | None = None
    space: CandidateSpace = field(init=False)
    stats: EngineStats = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise OptimizerError(
                f"unknown engine mode {self.mode!r}; valid: {ENGINE_MODES}"
            )
        if self.chunk_size < 1:
            raise OptimizerError(
                f"chunk_size must be >= 1, got {self.chunk_size!r}"
            )
        self.backend = resolve_backend(self.backend, mode=self.mode)
        if self.backend in TERM_TABLE_BACKENDS and self.mode == "direct":
            raise OptimizerError(
                f"the {self.backend} backend requires mode='incremental': "
                "it evaluates candidates from per-cluster term tables and "
                "cannot run the full-topology direct path"
            )
        if self.pool_registry is None:
            self.pool_registry = default_registry()
        #: Unique engine id — the worker-table key in shared pools.
        self.uid = next(_ENGINE_UIDS)
        #: Span recorder (see :mod:`repro.obs`); attached by the broker
        #: session when tracing is on.  ``None`` disables chunk spans —
        #: backends guard on a single `is not None` check per block.
        self.tracer = None
        self.space = self.problem.space()
        self.stats = EngineStats()
        self._results: dict[ChoiceNames, EvaluatedOption] = {}
        self._bind_backend(self.backend)
        self._profiles = self._precompute_profiles()
        # repro: lint-ok[REP001] integer row lengths, order-free
        self.stats.cluster_term_computations = sum(
            len(row) for row in self._profiles
        )
        # Hoisted once for _build_option, which runs per evaluated
        # candidate on every backend: the bare system's name/cluster
        # names and each cluster's per-choice profile names.
        bare = self.space.bare_system
        self._bare_name = bare.name
        self._cluster_names = bare.cluster_names
        self._choice_name_rows = tuple(
            tuple(profile.name for profile in row) for row in self._profiles
        )

    # -- backend lifecycle -------------------------------------------------

    def _bind_backend(self, backend: str) -> None:
        """Install ``backend``'s implementation."""
        self.backend = backend
        self._backend_impl = _BACKEND_TYPES[backend]()

    def set_backend(
        self,
        backend: str | None,
        *,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> "EvaluationEngine":
        """Rebind this engine to a different evaluation backend in place.

        The per-(cluster, technology) term tables, the ``ChoiceNames``
        result cache and the stats all survive the switch — rebinding a
        warm cached engine costs zero cluster-term computations.  The
        previous backend's pool lease is released first (the shared
        executor itself lives on while other engines hold it), so no
        in-flight chunk can observe the swap.  Not safe to call
        concurrently with evaluation; callers sharing engines across
        threads (the broker's engine cache) serialize through their
        entry locks.
        """
        backend = resolve_backend(backend, mode=self.mode)
        if backend in TERM_TABLE_BACKENDS and self.mode == "direct":
            raise OptimizerError(
                f"cannot rebind a mode='direct' engine to the {backend} "
                "backend; direct evaluation needs the full topology"
            )
        resized = False
        if max_workers is not None and max_workers != self.max_workers:
            self.max_workers = max_workers
            resized = True
        if chunk_size is not None:
            if chunk_size < 1:
                raise OptimizerError(
                    f"chunk_size must be >= 1, got {chunk_size!r}"
                )
            self.chunk_size = chunk_size
        if backend != self.backend:
            self._backend_impl.close()
            self._bind_backend(backend)
        elif resized:
            # Same backend, new width: release the lease so the next
            # stream acquires a pool of the requested size from the
            # registry (executor widths are fixed at creation).
            self._backend_impl.close()
        return self

    def close(self) -> None:
        """Release the backend's pool lease (caches stay warm).

        Idempotent; a closed engine remains usable — the next batch
        evaluation lazily re-acquires a pool.  The shared executor shuts
        down when its last leasing engine closes.
        """
        self._backend_impl.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _precompute_profiles(self) -> tuple[tuple[ChoiceProfile, ...], ...]:
        """Apply and factor every (cluster, technology) pairing once."""
        labor_rate = self.problem.labor_rate
        table = []
        for i in range(self.space.cluster_count):
            row = []
            for index, technology in enumerate(self.space.choices_for(i)):
                applied = self.space.applied_cluster(i, index)
                row.append(
                    ChoiceProfile(
                        index=index,
                        name=technology.name,
                        applied=applied,
                        availability=cluster_availability_terms(applied),
                        cost=cluster_cost_terms(applied),
                        ha_cost=applied.monthly_ha_infra_cost
                        + labor_rate.monthly_cost(applied.monthly_ha_labor_hours),
                    )
                )
            table.append(tuple(row))
        return tuple(table)

    @property
    def profiles(self) -> tuple[tuple[ChoiceProfile, ...], ...]:
        """Per-cluster rows of cached (cluster, technology) profiles."""
        return self._profiles

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, option_id: int, indices: tuple[int, ...]
    ) -> EvaluatedOption:
        """Evaluate one candidate, consulting and feeding the cache.

        A cache hit under a different paper-order id is re-labelled via
        :meth:`EvaluatedOption.relabel` — everything else about the
        option is id-independent, and relabelling keeps a lazy topology
        unbuilt.
        """
        names, cached = self._cache_probe(option_id, indices)
        if cached is not None:
            return cached

        if self.mode == "direct":
            option = evaluate_candidate_direct(
                self.problem, self.space, option_id, indices
            )
            counter = "topology_evaluations"
        else:
            option = self._combine(option_id, indices, names)
            counter = "incremental_combines"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self.cache:
            self._results.setdefault(names, option)
        return option

    def _cache_probe(
        self, option_id: int, indices: tuple[int, ...]
    ) -> tuple[ChoiceNames | None, EvaluatedOption | None]:
        """Count one evaluation request and answer it from the cache.

        Returns ``(names, option)`` where ``option`` is the relabelled
        cache hit or ``None`` on a miss; ``names`` is the cache key the
        eventual result should be admitted under (``None`` when the
        cache is off).  Shared by :meth:`evaluate` and the process
        backend, which probes in the parent before shipping misses to
        its workers.
        """
        names = self.space.choice_names(indices) if self.cache else None
        self.stats.candidate_evaluations += 1
        cached = self._results.get(names) if self.cache else None
        if cached is None:
            return names, None
        self.stats.cache_hits += 1
        return names, cached.relabel(option_id)

    def _combine(
        self,
        option_id: int,
        indices: tuple[int, ...],
        names: ChoiceNames | None = None,
    ) -> EvaluatedOption:
        """O(n) evaluation from the cached per-cluster factor sets.

        Neither the candidate's :class:`SystemTopology` nor its
        :class:`AvailabilityReport` is built here: the option carries
        factories that assemble them on first access, so
        distilled/streamed sweeps that only rank by cost never pay
        per-candidate object construction.
        """
        if len(indices) != self.space.cluster_count:
            raise OptimizerError(
                f"expected {self.space.cluster_count} choice indices, "
                f"got {len(indices)}"
            )
        chosen = tuple(
            self._profiles[i][choice] for i, choice in enumerate(indices)
        )
        breakdown, failover, contributions = availability_values_from_terms(
            tuple(profile.availability for profile in chosen)
        )
        uptime = 1.0 - (breakdown + failover)
        tco_values = tco_values_from_terms(
            tuple(profile.cost for profile in chosen),
            uptime,
            self.problem.contract,
            self.problem.labor_rate,
        )
        return self._build_option(
            option_id, indices, names,
            breakdown, failover, tuple(contributions), tco_values,
            self.problem.contract.sla.is_met_by(uptime),
        )

    def _build_option(
        self,
        option_id: int,
        indices: tuple[int, ...],
        names: ChoiceNames | None,
        breakdown: float,
        failover: float,
        contributions: tuple[float, ...],
        tco_values: tuple,
        meets_sla: bool,
    ) -> EvaluatedOption:
        """Assemble a lazy option from the Eq. 1-5 values.

        The availability factory reconstructs exactly what
        :func:`availability_from_terms` would have built — same values,
        same per-cluster fields — so forcing a lazy report is
        bit-identical to eager evaluation regardless of which backend
        computed the floats.

        This runs once per evaluated candidate on every backend, so the
        hot path stays minimal: the chosen-profile gather is deferred
        into the lazy factories (distilled sweeps that only rank by cost
        never pay it) and the per-engine constants (system name, cluster
        names, per-choice name rows) are hoisted to ``__post_init__``.
        """
        profiles = self._profiles
        bare_name = self._bare_name
        cluster_names = self._cluster_names

        def build_system() -> SystemTopology:
            return SystemTopology(
                name=bare_name,
                clusters=tuple(
                    profiles[i][choice].applied
                    for i, choice in enumerate(indices)
                ),
            )

        def build_availability() -> AvailabilityReport:
            chosen = tuple(
                profiles[i][choice] for i, choice in enumerate(indices)
            )
            return AvailabilityReport(
                system_name=bare_name,
                breakdown_probability=breakdown,
                failover_probability=failover,
                clusters=tuple(
                    ClusterAvailability(
                        name=name,
                        up_probability=profile.availability.up_probability,
                        breakdown_probability=(
                            1.0 - profile.availability.up_probability
                        ),
                        failover_contribution=contribution,
                    )
                    for name, profile, contribution in zip(
                        cluster_names, chosen, contributions
                    )
                ),
            )

        if names is None:
            # Cache-off misses carry no probe key, so the name gather is
            # deferred too: a distilled sweep only ever forces it for
            # the winning rows.
            name_rows = self._choice_name_rows

            def names() -> ChoiceNames:
                return tuple(map(tuple.__getitem__, name_rows, indices))

        return assemble_option(
            option_id,
            names,
            build_system,
            build_availability,
            assemble_breakdown(tco_values),
            meets_sla,
            cluster_names,
        )

    def evaluate_many(
        self, enumerated: Iterable[tuple[int, tuple[int, ...]]]
    ) -> Iterator[EvaluatedOption]:
        """Evaluate ``(option_id, indices)`` pairs, preserving order.

        Delegates to the engine's evaluation backend: serial engines
        evaluate inline; the process backend cuts the stream into
        ``chunk_size`` blocks fanned out over a shared leased worker
        pool with a bounded in-flight window (the input is *not* drained
        eagerly), so huge candidate streams stay O(window) in memory;
        the vector backend gathers ``chunk_size`` blocks into numpy
        column arrays evaluated in-process.  Chunks are yielded in
        submission order in every backend, so downstream consumers
        (streaming results, option tables) see identical —
        bit-identical — sequences regardless of parallelism.

        Only the batch entry points fan out; the pruned and
        branch-and-bound searches are inherently sequential (each
        evaluation feeds the next pruning decision) and always evaluate
        one candidate at a time.
        """
        return self._backend_impl.evaluate_stream(self, enumerated)

    def evaluate_all(self) -> Iterator[EvaluatedOption]:
        """Stream every candidate of the space in paper order."""
        return self.evaluate_many(
            enumerate(self.space.candidates_in_paper_order(), start=1)
        )

    def sweep(self, *, keep_options: bool = True) -> "OptimizationResult":
        """Exhaustively evaluate the space into an optimization result.

        The engine-level entry point behind the brute-force strategy.
        With ``keep_options=True`` this is ``from_stream`` over
        :meth:`evaluate_all` — the full option table.  With
        ``keep_options=False`` the sweep is distilled to the two
        recommendations, and a backend that can rank candidates in bulk
        (the vector backend) folds whole blocks with numpy and only
        assembles the block winners — bit-identical to the scalar fold,
        several times cheaper at 100k+ candidates.
        """
        from repro.optimizer.result import OptimizationResult, ResultAccumulator

        if not keep_options:
            distill = getattr(self._backend_impl, "sweep_distilled", None)
            if distill is not None:
                accumulator = ResultAccumulator(
                    space_size=self.space.size,
                    strategy="brute-force",
                    keep_options=False,
                )
                distill(
                    self,
                    enumerate(self.space.candidates_in_paper_order(), start=1),
                    accumulator,
                )
                return accumulator.finish()
        return OptimizationResult.from_stream(
            self.evaluate_all(),
            space_size=self.space.size,
            strategy="brute-force",
            keep_options=keep_options,
        )


def engine_for(
    problem: OptimizationProblem,
    engine: EvaluationEngine | None,
) -> EvaluationEngine:
    """Return a validated engine for ``problem``, building one if needed.

    Strategies accept an optional shared engine so the broker (and the
    advisor's what-if sweeps) can reuse one cache across searches; a
    shared engine must have been built for the *same problem instance* —
    cached TCO values are contract- and rate-dependent.
    """
    if engine is None:
        return EvaluationEngine(problem)
    if engine.problem is not problem:
        raise OptimizerError(
            "engine was built for a different problem instance; "
            "cached evaluations would be invalid"
        )
    return engine
