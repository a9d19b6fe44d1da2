"""The broker's observation store.

The broker "determines and maintains a database of the ``P_i`` and
``f_i`` across IaaS components across clouds [and] the ``t_i`` for
various components" (§II-C).  :class:`TelemetryStore` is that database:
it tracks *exposure* (how many component-minutes were observed) and
*events* (failures, repair durations, failover latencies), and derives
the estimates:

- ``P̂`` = observed down minutes / observed exposure minutes;
- ``f̂`` = observed failures / observed exposure years;
- ``t̂`` = mean observed failover minutes.

The paper's §IV notes short-term skews "smooth out over the long term";
experiment E5 measures exactly that convergence.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.errors import InsufficientTelemetryError, ValidationError
from repro.units import MINUTES_PER_YEAR

#: Key of one observed component class: (provider name, component kind).
ComponentKey = tuple[str, str]

#: Current snapshot format version (shared with :mod:`repro.broker.persistence`).
SNAPSHOT_VERSION = 1


@dataclass
class _ComponentStats:
    """Accumulated observations for one (provider, kind) pair.

    The estimate methods read this object alone, so every figure derived
    from one instance belongs to one epoch: :meth:`TelemetryStore.adopt`
    swaps the whole dict, and stats it published are never mutated.

    ``failover_samples`` is append-only: ``record_failover`` appends,
    ``merge`` extends, and ``from_snapshot``/``copy`` build new lists.
    Nothing reorders, replaces or removes a sample in place.  So the
    list's identity plus its length names one exact prefix of samples,
    and the failover mean and std are memoized under that pair: a warm
    estimate costs O(1), not O(samples), and each adopted epoch pays
    one O(n) recompute per component.  The memo records the count it
    actually summed, so an append racing a reader can only make the
    next read recompute, never leave a stale value behind.
    """

    exposure_minutes: float = 0.0
    down_minutes: float = 0.0
    failures: int = 0
    failover_samples: list[float] = field(default_factory=list)
    #: ``(samples list, count, mean, std)`` of the last failover summary.
    _failover_memo: tuple[list[float], int, float, float] | None = field(
        default=None, compare=False, repr=False
    )

    def require_exposure(
        self, provider: str, component_kind: str
    ) -> "_ComponentStats":
        """``self``, or :class:`InsufficientTelemetryError` if unexposed."""
        if self.exposure_minutes <= 0.0:
            raise _no_exposure(provider, component_kind)
        return self

    def exposure_years(self) -> float:
        """Observed component-years."""
        return self.exposure_minutes / MINUTES_PER_YEAR

    def down_probability(self) -> float:
        """``P̂``: observed fraction of exposure spent down."""
        return min(self.down_minutes / self.exposure_minutes, 1.0)

    def failures_per_year(self) -> float:
        """``f̂``: observed failures per component-year."""
        return self.failures / (self.exposure_minutes / MINUTES_PER_YEAR)

    def failover_minutes(self, provider: str, component_kind: str) -> float:
        """``t̂``: mean observed failover latency (needs one sample)."""
        if not self.failover_samples:
            raise InsufficientTelemetryError(
                f"no failover observations for {component_kind!r} on "
                f"{provider!r}; cannot estimate t"
            )
        return self._failover_moments()[0]

    def failover_minutes_std(self) -> float:
        """Sample standard deviation of failover latencies (0 below 2)."""
        return self._failover_moments()[1]

    def _failover_moments(self) -> tuple[float, float]:
        """``(mean, sample std)`` of the failover samples, memoized.

        Mean is ``nan`` with no samples; callers check emptiness first.
        """
        samples = self.failover_samples
        count = len(samples)
        memo = self._failover_memo
        if memo is not None and memo[0] is samples and memo[1] == count:
            return memo[2], memo[3]
        summed = samples[:count]
        # Ordered left folds: builtin sum() compensates float sums on
        # Python >= 3.12 only, and these estimates reach the wire.
        total = 0.0
        for x in summed:
            total += x
        mean = total / count if count else float("nan")
        std = 0.0
        if count >= 2:
            squares = 0.0
            for x in summed:
                squares += (x - mean) ** 2
            std = (squares / (count - 1)) ** 0.5
        self._failover_memo = (samples, count, mean, std)
        return mean, std


def exposure_minutes(node_count: int, horizon_minutes: float) -> float:
    """``node_count * horizon_minutes``, or ValidationError.

    The count must be >= 1, the horizon > 0, and both and their product
    finite: the one rule for an exposure observation.
    """
    if not 1 <= node_count < math.inf:
        raise ValidationError(
            f"node_count must be finite and >= 1, got {node_count!r}"
        )
    if not 0.0 < horizon_minutes < math.inf:
        raise ValidationError(
            f"horizon_minutes must be finite and > 0, got {horizon_minutes!r}"
        )
    try:
        minutes = node_count * horizon_minutes
    except OverflowError:  # an int too large to become a float
        minutes = math.inf
    if minutes == math.inf:
        raise ValidationError(
            f"exposure of {node_count!r} nodes x {horizon_minutes!r} minutes "
            "is not finite"
        )
    return minutes


def _no_exposure(provider: str, component_kind: str) -> InsufficientTelemetryError:
    return InsufficientTelemetryError(
        f"no exposure recorded for component {component_kind!r} on "
        f"provider {provider!r}; register_exposure() first"
    )


class TelemetryStore:
    """Accumulates observations and answers estimate queries.

    ``generation`` names the store's current state: every mutator
    (``register_exposure``, the ``record_*`` methods and so ``ingest``,
    ``merge``, ``adopt``) assigns it a fresh value *after* mutating.  A
    reader that memoizes derived values reads it *before* its estimates,
    so it can file newer state under an older generation (harmless: that
    generation is already gone once the mutator returns) but never old
    state under a newer one.  Values come from one
    :func:`itertools.count` per store, whose ``next`` is atomic, so two
    racing mutators never publish the same value twice.  A new store
    (``copy``, ``from_snapshot`` included) starts at 0; memo keys pair
    the generation with the store object itself.
    """

    def __init__(self) -> None:
        self._stats: dict[ComponentKey, _ComponentStats] = {}
        self._ticks = itertools.count(1)
        self.generation = 0

    def _bump(self) -> None:
        """Publish a new generation; call after the mutation is done."""
        self.generation = next(self._ticks)

    # -- recording ---------------------------------------------------------

    def register_exposure(
        self,
        provider: str,
        component_kind: str,
        node_count: int,
        horizon_minutes: float,
    ) -> None:
        """Record that ``node_count`` components were watched for a span.

        Exposure is the denominator of both ``P̂`` and ``f̂``; ingesting
        events without registering exposure is rejected at query time.
        Every recorder refuses non-finite values, so one ``NaN`` or
        ``inf`` observation cannot poison an estimate for good.
        """
        minutes = exposure_minutes(node_count, horizon_minutes)
        self._stats_for(provider, component_kind).exposure_minutes += minutes
        self._bump()

    def record_failure(self, provider: str, component_kind: str) -> None:
        """Count one component failure."""
        self._stats_for(provider, component_kind).failures += 1
        self._bump()

    def record_outage(
        self, provider: str, component_kind: str, down_minutes: float
    ) -> None:
        """Record the duration of a completed outage."""
        if not 0.0 <= down_minutes < math.inf:
            raise ValidationError(
                f"down_minutes must be finite and >= 0, got {down_minutes!r}"
            )
        self._stats_for(provider, component_kind).down_minutes += down_minutes
        self._bump()

    def record_failover(
        self, provider: str, component_kind: str, failover_minutes: float
    ) -> None:
        """Record one observed failover latency."""
        if not 0.0 <= failover_minutes < math.inf:
            raise ValidationError(
                "failover_minutes must be finite and >= 0, "
                f"got {failover_minutes!r}"
            )
        self._stats_for(provider, component_kind).failover_samples.append(
            failover_minutes
        )
        self._bump()

    def _stats_for(self, provider: str, component_kind: str) -> _ComponentStats:
        """The pair's stats, created (atomically) on first sight."""
        key = (provider, component_kind)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats.setdefault(key, _ComponentStats())
        return stats

    def ingest(self, events: Iterable[ResourceEvent]) -> int:
        """Consume a fault-injector event stream; returns events read.

        FAILURE events count failures; REPAIR events carry the outage
        duration; FAILOVER events carry takeover latencies.
        """
        count = 0
        for event in events:
            count += 1
            if event.kind is ResourceEventKind.FAILURE:
                self.record_failure(event.provider, event.component_kind)
            elif event.kind is ResourceEventKind.REPAIR:
                self.record_outage(
                    event.provider, event.component_kind, event.duration_minutes
                )
            elif event.kind is ResourceEventKind.FAILOVER:
                self.record_failover(
                    event.provider, event.component_kind, event.duration_minutes
                )
            else:  # pragma: no cover - exhaustive enum guard
                raise ValidationError(f"unknown event kind {event.kind!r}")
        return count

    # -- snapshots and merging ---------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """This store's full state as a versioned, JSON-safe document.

        The snapshot is a deep copy: later recording on the store does
        not mutate it, so a snapshot taken by one thread can be merged
        or serialized by another without coordination.  The format is
        the :mod:`repro.broker.persistence` on-disk format.
        """
        components = []
        for (provider, kind), stats in sorted(self._stats.items()):
            components.append(
                {
                    "provider": provider,
                    "component_kind": kind,
                    "exposure_minutes": stats.exposure_minutes,
                    "down_minutes": stats.down_minutes,
                    "failures": stats.failures,
                    "failover_samples": list(stats.failover_samples),
                }
            )
        return {"snapshot_version": SNAPSHOT_VERSION, "components": components}

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "TelemetryStore":
        """Rebuild a store from :meth:`snapshot` output (exact round-trip)."""
        version = payload.get("snapshot_version")
        if version != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported telemetry snapshot_version {version!r}; "
                f"this library reads version {SNAPSHOT_VERSION}"
            )
        store = cls()
        for entry in payload.get("components", []):
            stats = _ComponentStats(
                exposure_minutes=float(entry["exposure_minutes"]),
                down_minutes=float(entry["down_minutes"]),
                failures=int(entry["failures"]),
                failover_samples=[float(x) for x in entry["failover_samples"]],
            )
            if (
                stats.exposure_minutes < 0
                or stats.down_minutes < 0
                or stats.failures < 0
            ):
                raise ValidationError(
                    f"negative statistics in snapshot entry {entry!r}"
                )
            store._stats[(entry["provider"], entry["component_kind"])] = stats
        return store

    def copy(self) -> "TelemetryStore":
        """An independent deep copy of this store."""
        return TelemetryStore.from_snapshot(self.snapshot())

    def merge(self, other: "TelemetryStore") -> "TelemetryStore":
        """Fold another store's observations into this one; returns self.

        Per component class the counters add and the failover samples
        concatenate, so merging N disjoint partitions of an event stream
        reproduces single-store ingestion: a key absent from ``self``
        adopts the other store's accumulation bit-for-bit (``0.0 + x``
        is exact), and shared keys add their sums.  Merging stores that
        *split* one key's events regroups float additions, so estimates
        there agree only to rounding (see the associativity property
        tests).
        """
        for key, theirs in other._stats.items():
            mine = self._stats.setdefault(key, _ComponentStats())
            mine.exposure_minutes += theirs.exposure_minutes
            mine.down_minutes += theirs.down_minutes
            mine.failures += theirs.failures
            mine.failover_samples.extend(theirs.failover_samples)
        self._bump()
        return self

    def adopt(self, other: "TelemetryStore") -> None:
        """Atomically replace this store's contents with ``other``'s.

        Publication is a single dict-reference assignment, so concurrent
        readers (estimate queries from serving threads) observe either
        the old state or the new state, never a partial merge — the
        lock-free hand-off the sharded ingestion pipeline relies on.
        The new generation is published after the swap.  ``other`` must
        not be mutated afterwards (the dict is shared, not copied).
        """
        self._stats = other._stats
        self._bump()

    # -- queries -----------------------------------------------------------

    def observed_components(self) -> tuple[ComponentKey, ...]:
        """All (provider, kind) pairs with any exposure or events."""
        return tuple(sorted(self._stats))

    def component_stats(
        self, provider: str, component_kind: str
    ) -> _ComponentStats | None:
        """One read of a pair's observations (``None`` when never seen).

        Derive every figure of one estimate from the returned object: a
        concurrent :meth:`adopt` between two separate accessor calls
        would otherwise mix two epochs into one estimate.
        """
        return self._stats.get((provider, component_kind))

    def exposure_years(self, provider: str, component_kind: str) -> float:
        """Observed component-years for a pair (0 when never watched)."""
        stats = self.component_stats(provider, component_kind)
        return 0.0 if stats is None else stats.exposure_years()

    def down_probability(self, provider: str, component_kind: str) -> float:
        """``P̂``: observed fraction of exposure spent down."""
        return self._require(provider, component_kind).down_probability()

    def failures_per_year(self, provider: str, component_kind: str) -> float:
        """``f̂``: observed failures per component-year."""
        return self._require(provider, component_kind).failures_per_year()

    def failover_minutes(self, provider: str, component_kind: str) -> float:
        """``t̂``: mean observed failover latency.

        Requires at least one failover observation.
        """
        return self._require(provider, component_kind).failover_minutes(
            provider, component_kind
        )

    def failover_minutes_std(self, provider: str, component_kind: str) -> float:
        """Sample standard deviation of observed failover latencies.

        0 with fewer than two samples (no spread measurable yet).
        """
        return self._require(provider, component_kind).failover_minutes_std()

    def failure_count(self, provider: str, component_kind: str) -> int:
        """Raw failure count (useful as a sample-size indicator)."""
        stats = self.component_stats(provider, component_kind)
        return 0 if stats is None else stats.failures

    def _require(self, provider: str, component_kind: str) -> _ComponentStats:
        stats = self.component_stats(provider, component_kind)
        if stats is None:
            raise _no_exposure(provider, component_kind)
        return stats.require_exposure(provider, component_kind)
