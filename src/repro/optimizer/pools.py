"""Shared, ref-counted worker-pool ownership across evaluation engines.

Before this module, every :class:`~repro.optimizer.engine.EvaluationEngine`
owned its evaluation pool outright: N cached engines meant N
``ProcessPoolExecutor``s, N sets of worker processes, and N pools leaked
whenever an engine was dropped without ``close()``.  The
:class:`PoolRegistry` inverts that ownership:

- pools are keyed by their width and **ref-counted** — every engine
  backend acquires a :class:`PoolHandle` lease and the executor is
  created on the first acquire and shut down deterministically when the
  last holder releases;
- worker processes are seeded once (via the pool initializer) with the
  registry's *table channel* and fetch each engine's pickled term
  tables on demand, caching them locally keyed by the engine's unique
  id.  The channel publishes each engine's tables once into a named
  ``multiprocessing.shared_memory`` segment that workers attach
  read-only (no per-fetch IPC round trip, no serialization proxy
  process).  One pool's workers serve chunks for any number of engines
  concurrently, and a chunk carries only
  ``(engine uid, (option_id, indices), ...)`` — never the precomputes;
- a worker failure marks the pool *broken*: it leaves the registry map
  immediately (so the next acquire builds a fresh pool) and is shut
  down once its last holder releases.

Shared-memory segments are ref-counted per engine uid: ``publish``
creates (or re-leases) the segment, ``retract`` unlinks it when the last
publisher lets go, and the registry unlinks any leftovers when the last
process-pool lease is released — so an idle registry holds no OS
resources at all.  On POSIX the workers' attach-time resource-tracker
registrations are deduplicated with the parent's create-time one (fork
start method shares the tracker process), so parent-side ``unlink`` is
the single point of cleanup; workers never unlink or unregister.

A process-global :func:`default_registry` makes the sharing automatic:
engines built without an explicit registry — including every engine a
broker's :class:`~repro.broker.api.EngineCache` builds — share one
process pool per width instead of spawning their own.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

from repro.errors import OptimizerError

#: Per-worker cap on locally cached engine term tables.  Tables are
#: fetched from the registry's table channel on first use and kept in an
#: LRU so a long-lived shared pool serving many short-lived engines does
#: not accumulate every table it ever saw.
WORKER_TABLE_LIMIT = 32


def _segment_name(token: str, uid: int) -> str:
    """Deterministic shared-memory name for one engine's tables.

    ``token`` is unique per registry (pid + random hex), so concurrent
    registries — and concurrent test processes — never collide.
    Workers rebuild the same name from the token they were seeded with.
    """
    return f"repro_{token}_{uid}"


# -- worker-side plumbing ---------------------------------------------------
#
# These globals live in each *worker process* (the parent's copies are
# never used).  The initializer runs once per worker at pool startup;
# afterwards every chunk resolves its engine's tables through
# ``worker_payload`` — a local-cache hit in the steady state, one
# channel fetch per (worker, engine) pairing at worst.

_WORKER_TOKEN: str | None = None
_WORKER_TABLES: "OrderedDict[int, object]" = OrderedDict()


def _pool_worker_init(token: str) -> None:
    """Install the registry's segment-name token in a new worker process."""
    global _WORKER_TOKEN
    _WORKER_TOKEN = token
    _WORKER_TABLES.clear()


def _missing_tables(uid: int) -> OptimizerError:
    return OptimizerError(
        f"engine {uid} has no published worker tables "
        "(engine closed while chunks were in flight?)"
    )


def _fetch_shm_payload(token: str, uid: int):
    """Attach one engine's segment, deserialize, detach.

    The deserialized payload is a full copy, so the mapping is released
    immediately.  Workers never ``unlink`` (the parent owns the segment
    lifetime) — on POSIX the attach registers with the shared resource
    tracker, which deduplicates against the parent's registration and is
    cleared by the parent's ``unlink``.
    """
    try:
        segment = shared_memory.SharedMemory(name=_segment_name(token, uid))
    except FileNotFoundError:
        raise _missing_tables(uid) from None
    try:
        # pickled data stops at its STOP opcode, so the page-granular
        # zero-fill past the payload is ignored.
        return pickle.loads(segment.buf)
    finally:
        segment.close()


def worker_payload(uid: int):
    """Resolve one engine's published tables inside a worker process.

    Local LRU first, then a shared-memory attach.  A missing uid means
    the engine retracted its tables (closed) while chunks were still
    queued — surfaced as a structured error rather than a
    ``FileNotFoundError`` traceback pickled across the pool boundary.
    """
    tables = _WORKER_TABLES
    if uid in tables:
        tables.move_to_end(uid)
        return tables[uid]
    if _WORKER_TOKEN is None:
        raise OptimizerError(
            "pool worker was never initialized with a table channel"
        )
    payload = _fetch_shm_payload(_WORKER_TOKEN, uid)
    tables[uid] = payload
    while len(tables) > WORKER_TABLE_LIMIT:
        tables.popitem(last=False)
    return payload


# -- registry ---------------------------------------------------------------

@dataclass
class PoolRegistryStats:
    """Lifecycle accounting for one :class:`PoolRegistry`.

    ``pools_created``/``pools_closed`` count real executors, not leases;
    a healthy steady state creates one pool per width however
    many engines share it.  ``tables_published``/``tables_retracted``
    count table-channel publications (one per engine process lease).
    """

    pools_created: int = 0
    pools_closed: int = 0
    acquires: int = 0
    releases: int = 0
    invalidations: int = 0
    tables_published: int = 0
    tables_retracted: int = 0

    def snapshot(self) -> "PoolRegistryStats":
        """A point-in-time copy — registries mutate their live stats."""
        return replace(self)

    def to_dict(self) -> dict[str, int]:
        """JSON-safe counters."""
        return {
            "pools_created": self.pools_created,
            "pools_closed": self.pools_closed,
            "acquires": self.acquires,
            "releases": self.releases,
            "invalidations": self.invalidations,
            "tables_published": self.tables_published,
            "tables_retracted": self.tables_retracted,
        }


@dataclass
class _SharedPool:
    """One executor plus its lease bookkeeping."""

    workers: int
    pool: object
    holders: int = 0
    broken: bool = False
    closed: bool = False


@dataclass
class _ShmSegment:
    """One published engine's shared-memory segment (parent side)."""

    segment: object
    size: int
    refs: int = 1


class PoolHandle:
    """One holder's lease on a shared executor.

    Handles are not thread-safe per se — each backend guards its own
    handle — but :meth:`release` is idempotent and safe to race with
    other holders' releases.
    """

    def __init__(self, registry: "PoolRegistry", shared: _SharedPool) -> None:
        self._registry = registry
        self._shared = shared
        self.released = False

    @property
    def pool(self):
        """The shared executor this lease covers."""
        return self._shared.pool

    @property
    def workers(self) -> int:
        return self._shared.workers

    def release(self, *, invalidate: bool = False) -> None:
        """Give the lease back; the last holder shuts the pool down.

        ``invalidate=True`` additionally marks the pool broken (a worker
        died), evicting it from the registry map at once so concurrent
        and future acquires build a fresh pool instead of inheriting the
        corpse.
        """
        self._registry._release(self, invalidate)


class PoolRegistry:
    """Ref-counted executors shared across evaluation engines.

    Thread-safe.  One registry typically serves a whole process (see
    :func:`default_registry`); tests and specialized deployments can
    build private ones to isolate pool populations.  The registry also
    owns the *table channel* for process pools, through which engines
    publish their per-(cluster, technology) term tables to workers
    exactly once, keyed by engine uid: each publication is one named
    shared-memory segment the workers attach read-only.  The channel
    comes up with the first process-pool lease and goes down with the
    last, so an idle registry holds no OS resources at all.
    """

    def __init__(self) -> None:
        # ``_lock`` guards the maps/counters (fast, never held across
        # blocking work); ``_build_lock`` serializes the slow cold path
        # (executor construction, channel teardown) so that a
        # multi-second process-pool spin-up never stalls unrelated
        # acquires and releases.
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        self._pools: dict[int, _SharedPool] = {}
        self._token = f"{os.getpid():x}{secrets.token_hex(4)}"
        self._segments: dict[int, _ShmSegment] = {}
        self._shm_channel_up = False
        self._process_holders = 0
        self.stats = PoolRegistryStats()

    # -- leases ------------------------------------------------------------

    def acquire(self, workers: int) -> PoolHandle:
        """Lease the ``workers``-wide executor, creating it if needed.

        Raises whatever the underlying executor raises on platforms
        without process support — callers degrade to serial evaluation
        on failure.
        """
        if workers < 1:
            raise OptimizerError(f"workers must be >= 1, got {workers!r}")
        handle = self._lease_existing(workers)
        if handle is not None:
            return handle
        # Cold path: build outside the map lock.  The build lock keeps
        # concurrent builders from racing each other (and keeps channel
        # teardown from unlinking segments mid-build).
        with self._build_lock:
            handle = self._lease_existing(workers)
            if handle is not None:
                return handle
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_worker_init,
                initargs=(self._token,),
            )
            try:
                shared = _SharedPool(workers=workers, pool=pool, holders=1)
                handle = PoolHandle(self, shared)
            except BaseException:
                pool.shutdown(wait=False)
                raise
            with self._lock:
                self._pools[workers] = shared
                self.stats.pools_created += 1
                self._process_holders += 1
                self._shm_channel_up = True
                self.stats.acquires += 1
            return handle

    def _lease_existing(self, workers: int) -> PoolHandle | None:
        """The fast path: bump an already-built pool's lease count."""
        with self._lock:
            shared = self._pools.get(workers)
            if shared is None:
                return None
            shared.holders += 1
            self._process_holders += 1
            self.stats.acquires += 1
            return PoolHandle(self, shared)

    def _release(self, handle: PoolHandle, invalidate: bool) -> None:
        shutdown_pool = None
        maybe_close_channel = False
        with self._lock:
            if handle.released:
                return
            handle.released = True
            self.stats.releases += 1
            shared = handle._shared
            shared.holders -= 1
            if invalidate and not shared.broken:
                shared.broken = True
                self.stats.invalidations += 1
            if self._pools.get(shared.workers) is shared and (
                shared.broken or shared.holders <= 0
            ):
                del self._pools[shared.workers]
            if shared.holders <= 0 and not shared.closed:
                shared.closed = True
                shutdown_pool = shared.pool
                self.stats.pools_closed += 1
            self._process_holders -= 1
            maybe_close_channel = self._process_holders <= 0
        # Executor/segment teardown can block; never do it under
        # the map lock.
        if shutdown_pool is not None:
            shutdown_pool.shutdown(wait=True)
        if maybe_close_channel:
            # Serialize with builders: a cold-path acquire must finish (and
            # re-raise the process holder count) before the channel may
            # go down.
            with self._build_lock:
                leftovers: tuple[_ShmSegment, ...] = ()
                with self._lock:
                    if self._process_holders <= 0 and self._shm_channel_up:
                        leftovers = tuple(self._segments.values())
                        self._segments.clear()
                        self._shm_channel_up = False
                for entry in leftovers:
                    self._unlink_segment(entry)

    @staticmethod
    def _unlink_segment(entry: _ShmSegment) -> None:
        """Release and unlink one segment, tolerating races with exit."""
        try:
            entry.segment.close()
            entry.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- table channel -----------------------------------------------------

    def publish(self, uid: int, payload) -> None:
        """Make ``payload`` fetchable by pool workers under ``uid``.

        Requires a live process-pool lease (the channel's lifetime is
        tied to process holders); backends publish immediately after
        acquiring their handle and before submitting any chunk.
        Re-publishing an already-published uid bumps its segment's
        ref count instead of re-serializing.
        """
        with self._lock:
            if not self._shm_channel_up:
                raise OptimizerError(
                    "cannot publish worker tables without an active "
                    "process pool"
                )
            entry = self._segments.get(uid)
            if entry is not None:
                entry.refs += 1
                self.stats.tables_published += 1
                return
        # Serialize outside the lock (the payload can be large); the
        # segment is named after this registry's token so a concurrent
        # teardown/republish race cannot collide with another registry.
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        segment = shared_memory.SharedMemory(
            name=_segment_name(self._token, uid), create=True, size=len(data)
        )
        try:
            segment.buf[: len(data)] = data
            new_entry = _ShmSegment(segment=segment, size=len(data))
            with self._lock:
                if self._shm_channel_up and uid not in self._segments:
                    self.stats.tables_published += 1
                    self._segments[uid] = new_entry
                    return
                racing = self._segments.get(uid)
                if racing is not None:
                    racing.refs += 1
                    self.stats.tables_published += 1
        except BaseException:
            # Anything raised between creating the OS segment and
            # registering it would otherwise leak a named shm file that
            # outlives the process (REP004's motivating window).
            self._unlink_segment(_ShmSegment(segment=segment, size=len(data)))
            raise
        # Lost a race (duplicate publish) or the channel went down while
        # we serialized: this segment is not the published one.
        self._unlink_segment(new_entry)
        with self._lock:
            channel_up = self._shm_channel_up
        if not channel_up:
            raise OptimizerError(
                "cannot publish worker tables without an active process pool"
            )

    def retract(self, uid: int) -> None:
        """Withdraw ``uid``'s published tables (idempotent)."""
        unlink = None
        with self._lock:
            entry = self._segments.get(uid)
            if entry is None:
                return
            entry.refs -= 1
            self.stats.tables_retracted += 1
            if entry.refs <= 0:
                del self._segments[uid]
                unlink = entry
        if unlink is not None:
            self._unlink_segment(unlink)

    # -- introspection -----------------------------------------------------

    def active_pools(self) -> tuple[int, ...]:
        """Widths of the live (non-broken, leased or leasable) pools."""
        with self._lock:
            return tuple(self._pools)

    def holders(self, workers: int) -> int:
        """Current lease count on one width's pool (0 if absent)."""
        with self._lock:
            shared = self._pools.get(workers)
            return 0 if shared is None else shared.holders

    def live_leases(self) -> int:
        """Outstanding pool leases across every width."""
        with self._lock:
            # repro: lint-ok[REP001] integer lease counters, order-free
            return sum(shared.holders for shared in self._pools.values())

    def has_table_channel(self) -> bool:
        """Whether the table channel is currently up."""
        with self._lock:
            return self._shm_channel_up

    def term_table_bytes(self) -> int:
        """Bytes currently pinned in shared-memory term tables."""
        with self._lock:
            # repro: lint-ok[REP001] integer byte sizes, order-free
            return sum(entry.size for entry in self._segments.values())

    def published_uids(self) -> tuple[int, ...]:
        """Engine uids currently published to workers (for tests)."""
        with self._lock:
            return tuple(sorted(self._segments))

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)


# -- process-global default -------------------------------------------------

_default_registry: PoolRegistry | None = None
_default_registry_lock = threading.Lock()


def default_registry() -> PoolRegistry:
    """The process-wide registry engines share unless told otherwise."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            _default_registry = PoolRegistry()
        return _default_registry
