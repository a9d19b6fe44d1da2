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
   in O(n), bit-identical to the full-topology evaluation (the
   recombination performs the same float operations in the same order);
3. memoizes each candidate's Eq. 1-5 values keyed by its index tuple,
   so searches restarted over the same problem (pruned after brute
   force, branch-and-bound re-runs, advisor what-if sweeps) never
   evaluate a candidate twice.

Only three payload values depend on the contract: the slippage, the
penalty and the SLA verdict.  Everything else is fixed by the system,
the catalog and the labor rate, so an engine is split in two.  Its
contract-free half is an :class:`EvaluationModel`: the candidate space,
the ``n * k`` profiles and factor rows, and optionally a **model
table** (:data:`ModelTable`), a map from index tuple to the
candidate's contract-free :data:`ModelRow`.  The engine itself binds a
model to one contract: the contract's hoisted pricing function
(:meth:`~repro.sla.contract.Contract.pricing`) and the result cache.
A result-cache miss whose row is in the table is *priced* — slippage,
penalty and verdict from the row's uptime — instead of recombined.
The broker's engine cache keeps one model per system, so a new
contract over a known system builds no profiles and costs one pricing
pass per candidate.  An engine built without a model gets a private
one with no table, and recombines every miss.

Searches work on payloads, not options: :meth:`EvaluationEngine.payload`
answers one candidate (from the cache, a table row or by
recombination) and each strategy folds ``(option_id, indices,
payload)`` into a :class:`~repro.optimizer.result.ResultAccumulator`.  A full-table
result assembles a lazy :class:`EvaluatedOption` per candidate; a
distilled one (``keep_options=False``, the broker's wire path)
assembles only its two recommendations.

The result cache holds one flat tuple of Python floats and a bool per
candidate (see :data:`Payload`), never option objects.  CPython stops
tracking a tuple of untracked items at the first garbage collection
that sees it, so a warm engine with hundreds of thousands of cached
candidates adds nothing to the cyclic collector's full-collection
scans; caching the options themselves (each a dict, a breakdown and
closures, ~13 tracked objects) made those scans the dominant cost of
cold searches.  The payload is flat rather than nested on purpose: an
outer tuple is only untracked once its inner tuples are, and one
collection may visit the outer first, leaving it tracked.

The full-topology path survives only as the test and benchmark oracle,
:func:`~repro.optimizer.brute_force.evaluate_candidate`.

Every entry point — :meth:`EvaluationEngine.payload`,
:meth:`~EvaluationEngine.evaluate`, :meth:`~EvaluationEngine.sweep`
and :meth:`~EvaluationEngine.evaluate_many` — runs the same scalar
kernel inline on the calling thread, in submission order, so output is
deterministic.  An engine holds no OS resources and needs no closing:
dropping the last reference frees it.

An engine has **one consumer at a time**.  The broker's engine cache
serializes every evaluation on a cached engine through the entry's
lock, so cache and stats mutations take no lock of their own.  A model
and its table are shared across engines and threads, and need none
either (see :class:`EvaluationModel` and :data:`ModelTable`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.availability.model import (
    AvailabilityReport,
    ClusterAvailability,
    ClusterTerms,
    cluster_availability_terms,
)
from repro.cost.rates import LaborRate
from repro.cost.tco import (
    ClusterCostTerms,
    TCOBreakdown,
    assemble_breakdown,
    cluster_cost_terms,
)
from repro.errors import OptimizerError
from repro.optimizer.result import (
    EvaluatedOption,
    OptimizationResult,
    ResultAccumulator,
    assemble_option,
)
from repro.optimizer.space import (
    CandidateSpace,
    ChoiceNames,
    OptimizationProblem,
)
from repro.topology.cluster import ClusterSpec
from repro.topology.system import SystemTopology

#: One candidate's Eq. 1-5 values, as the result cache stores them: one
#: flat tuple holding the six :class:`TCOBreakdown` fields in declaration
#: order, then the breakdown and failover probabilities, the SLA verdict
#: and one failover contribution per cluster, in chain order.  Floats
#: and a bool only, so one collection untracks every cached payload.
#: Only this module reads payloads by position; other modules go
#: through :func:`payload_costs` and :func:`payload_meets_sla`.
Payload = tuple[float | bool, ...]

#: Positions in a :data:`Payload`.
_INFRA, _LABOR, _PENALTY = 0, 1, 2
_BREAKDOWN, _FAILOVER, _MEETS_SLA, _CONTRIBUTIONS = 6, 7, 8, 9


#: One candidate's contract-free values, as a :data:`ModelTable` holds
#: them: HA infra cost, priced HA labor, base infra cost, uptime,
#: breakdown and failover probabilities, then one failover
#: contribution per cluster.  A :data:`Payload` minus its slippage,
#: penalty and SLA verdict; floats only, so one collection untracks it.
ModelRow = tuple[float, ...]

#: Index tuple -> :data:`ModelRow`, shared by the engines bound to one
#: :class:`EvaluationModel`.  Plain dict reads and writes are
#: atomic under the GIL, and equal keys give equal rows, so engines
#: serving on different threads may share one table without a lock.
ModelTable = dict[tuple[int, ...], ModelRow]


def float_bits(values: tuple[float, ...]) -> bytes:
    """The IEEE-754 bits of ``values``: equal bytes, identical floats.

    Float ``==`` treats ``0.0`` and ``-0.0`` as equal, yet they round
    differently downstream; comparing bits keeps a shared table exact.
    """
    return struct.pack(f"<{len(values)}d", *values)


def payload_costs(payload: Payload) -> tuple[float, float]:
    """A payload's ``(ha_cost, expected_penalty)``.

    ``ha_cost`` is rounded as :attr:`TCOBreakdown.ha_cost` rounds it,
    so ``ha_cost + penalty`` is the option's
    :attr:`TCOBreakdown.total` bit for bit.
    """
    return payload[_INFRA] + payload[_LABOR], payload[_PENALTY]


def payload_meets_sla(payload: Payload) -> bool:
    """Whether a payload's expected uptime meets the contract SLA."""
    return payload[_MEETS_SLA]


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
        Requests answered from the index-keyed result cache.
    incremental_combines:
        Result-cache misses this engine answered, each by pricing a
        shared :data:`ModelRow` or by recombining the O(n) terms.
    cluster_term_computations:
        The ``n * k`` per-(cluster, technology) precomputations of the
        engine's :class:`EvaluationModel` — the only cluster-level
        availability math the engine ever runs.  Engines sharing one
        model each report its count, although it ran once.
    """

    candidate_evaluations: int = 0
    cache_hits: int = 0
    incremental_combines: int = 0
    cluster_term_computations: int = 0

    def snapshot(self) -> "EngineStats":
        """A point-in-time copy — engines mutate their live stats."""
        return replace(self)

    def to_dict(self) -> dict[str, int]:
        """JSON-safe counters (wire envelopes, cache dashboards)."""
        return {
            "candidate_evaluations": self.candidate_evaluations,
            "cache_hits": self.cache_hits,
            "incremental_combines": self.incremental_combines,
            "cluster_term_computations": self.cluster_term_computations,
        }

    def describe(self) -> str:
        """One-line summary for CLI/benchmark output."""
        return (
            f"evaluations={self.candidate_evaluations} "
            f"(cache hits {self.cache_hits}, "
            f"combines {self.incremental_combines}; "
            f"{self.cluster_term_computations} cluster terms precomputed)"
        )


class EvaluationModel:
    """The contract-free half of an engine, shared by engines over one system.

    Everything a candidate's Eq. 1-5 values need except the contract:
    the candidate space, the ``n * k`` :class:`ChoiceProfile` rows, the
    scalar kernel's factor rows, the names option assembly reads, an
    optional shared :data:`ModelTable` and a memoized paper-order
    candidate tuple.  A model holds no contract, no result cache and no
    engine, so a cached model never keeps an engine alive.

    The broker's engine cache keeps one model per system and binds each
    new contract's engine to it, so a cold contract over a known system
    applies no technology and factors no cluster.  Engines on
    different threads may share one model: after construction only the
    table (see :data:`ModelTable`) and the paper-order memo change, and
    the memo is published by one attribute store of an equal tuple.
    """

    def __init__(
        self,
        space: CandidateSpace,
        labor_rate: LaborRate,
        *,
        table: ModelTable | None = None,
    ) -> None:
        self.space = space
        self.labor_rate = labor_rate
        #: The shared :data:`ModelTable` of engines bound to this model;
        #: ``None`` recombines every result-cache miss.
        self.table = table
        self.profiles = self._precompute_profiles()
        # repro: lint-ok[REP001] integer row lengths, order-free
        self.term_count = sum(len(row) for row in self.profiles)
        # Hoisted once for option assembly, which runs per kept
        # candidate: the bare system's name and cluster names and each
        # cluster's per-choice profile names.
        bare = space.bare_system
        self.bare_name = bare.name
        self.cluster_names = bare.cluster_names
        self.choice_name_rows = tuple(
            tuple(profile.name for profile in row) for row in self.profiles
        )
        # The scalar kernel's inputs: one flat tuple of six floats per
        # (cluster, choice) — availability up, active-up and failover
        # rate, then cost HA infra, HA labor hours and base infra.
        self.factor_rows = tuple(
            tuple(
                (
                    profile.availability.up_probability,
                    profile.availability.active_up_probability,
                    profile.availability.failover_rate,
                    profile.cost.ha_infra_cost,
                    profile.cost.ha_labor_hours,
                    profile.cost.base_infra_cost,
                )
                for profile in row
            )
            for row in self.profiles
        )
        self._paper_order: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def for_problem(
        cls, problem: OptimizationProblem, *, table: ModelTable | None = None
    ) -> "EvaluationModel":
        """The model of ``problem``'s system, catalog and labor rate."""
        return cls(problem.space(), problem.labor_rate, table=table)

    def _precompute_profiles(self) -> tuple[tuple[ChoiceProfile, ...], ...]:
        """Apply and factor every (cluster, technology) pairing once."""
        space = self.space
        labor_rate = self.labor_rate
        table = []
        for i in range(space.cluster_count):
            row = []
            for index, technology in enumerate(space.choices_for(i)):
                applied = space.applied_cluster(i, index)
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

    def key(self) -> tuple:
        """The inputs of every :data:`ModelRow`, compared bit for bit.

        A row is a function of the factor rows (shape and values) and
        the labor rate alone, so models with equal keys compute equal
        rows whatever their engines' contracts.  Floats enter as their
        bits (see :func:`float_bits`).
        """
        rows = self.factor_rows
        labor_rate = self.labor_rate
        return (
            tuple(len(row) for row in rows),
            float_bits(
                tuple(
                    value
                    for row in rows
                    for factors in row
                    for value in factors
                )
            ),
            labor_rate,
            float_bits((labor_rate.dollars_per_hour,)),
        )

    def paper_order(self) -> tuple[tuple[int, ...], ...]:
        """Every candidate's index tuple in paper order, built once.

        Sweeps reuse the same tuple objects as result-cache and table
        keys.  Holds ``k^n`` tuples: an engine that caches nothing
        streams :meth:`CandidateSpace.candidates_in_paper_order`
        instead.
        """
        order = self._paper_order
        if order is None:
            order = tuple(self.space.candidates_in_paper_order())
            self._paper_order = order
        return order


@dataclass
class EvaluationEngine:
    """Evaluates candidates of one problem against a contract-free model.

    Parameters
    ----------
    problem:
        The optimization problem this engine serves.  All cached results
        are valid only for this exact problem instance; strategies guard
        against accidental cross-problem reuse.
    cache:
        Memoize each candidate's :data:`Payload` keyed by its index
        tuple, so repeated searches over the same problem never
        re-evaluate a candidate.
        All cache mutation happens on the consuming thread, and an
        engine must not be evaluated from multiple threads
        concurrently (the broker's engine cache serializes
        through its entry locks).
    model:
        The :class:`EvaluationModel` of the problem's system, catalog
        and labor rate, shared with other engines; ``None`` builds a
        private one without a table.  Binding an engine to a model
        only hoists the contract's pricing.
    """

    problem: OptimizationProblem
    cache: bool = True
    model: EvaluationModel | None = None
    space: CandidateSpace = field(init=False)
    stats: EngineStats = field(init=False)

    def __post_init__(self) -> None:
        model = self.model
        if model is None:
            model = self.model = EvaluationModel.for_problem(self.problem)
        elif model.labor_rate != self.problem.labor_rate:
            raise OptimizerError(
                "model was built for a different labor rate; its rows "
                "would price the wrong labor cost"
            )
        #: The :data:`ModelTable` this engine prices from and feeds,
        #: its model's unless rebound; ``None`` recombines every
        #: result-cache miss.  Only ever bind a table kept under this
        #: engine's :meth:`model_key`.
        self.model_table: ModelTable | None = model.table
        self.space = model.space
        # Every engine reports its model's n*k precompute as its own,
        # shared or not, so per-request stats stay what they were when
        # each engine factored its own clusters.
        self.stats = EngineStats(cluster_term_computations=model.term_count)
        self._results: dict[tuple[int, ...], Payload] = {}
        self._factor_rows = model.factor_rows
        self._labor_cost = model.labor_rate.monthly_cost
        #: ``uptime -> (slippage, penalty, meets SLA)``, hoisted once
        #: per engine (see :meth:`~repro.sla.contract.Contract.pricing`).
        self.price = self.problem.contract.pricing()

    @property
    def profiles(self) -> tuple[tuple[ChoiceProfile, ...], ...]:
        """Per-cluster rows of cached (cluster, technology) profiles."""
        return self.model.profiles

    def model_key(self) -> tuple:
        """The model's :meth:`EvaluationModel.key`: equal keys, equal rows."""
        return self.model.key()

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, option_id: int, indices: tuple[int, ...]
    ) -> EvaluatedOption:
        """Evaluate one candidate into a fresh option labelled ``option_id``.

        A cache hit rebuilds the option from the cached payload, so a
        hit under a different paper-order id needs no relabelling and
        its topology stays unbuilt.
        """
        return self._build_option(option_id, indices, self.payload(indices))

    def payload(self, indices: tuple[int, ...]) -> Payload:
        """One candidate's :data:`Payload`, consulting and feeding the cache.

        Counts one evaluation request, then either a cache hit or an
        incremental combine whose payload the cache admits.  The cache
        is keyed by the index tuple itself: within one space, index
        tuples and :data:`~repro.optimizer.space.ChoiceNames` are in
        bijection (the registry rejects duplicate names per layer and
        reserves ``none`` for index 0), so no per-candidate name tuple
        is built.  Strategies fold payloads and assemble options only
        for the candidates they keep.
        """
        stats = self.stats
        stats.candidate_evaluations += 1
        if self.cache:
            payload = self._results.get(indices)
            if payload is not None:
                stats.cache_hits += 1
                return payload
            payload = self._payload(indices)
            self._results[indices] = payload
        else:
            payload = self._payload(indices)
        stats.incremental_combines += 1
        return payload

    def _payload(self, indices: tuple[int, ...]) -> Payload:
        """O(n) Eq. 1-5 values: a priced table row, or a recombination."""
        table = self.model_table
        if table is not None:
            row = table.get(indices)
            if row is not None:
                return self._priced(row)
        return self._recombine(indices)

    def _recombine(self, indices: tuple[int, ...]) -> Payload:
        """Recombine a candidate from its factor rows; feed the table.

        Performs the float operations of
        :func:`~repro.availability.model.availability_values_from_terms`
        and :func:`~repro.cost.tco.tco_values_from_terms` in the same
        order, so its payloads are bit-identical to the full-topology
        oracle's values (the oracle tests pin it).  A priced row holds
        those same floats, and pricing runs the same contract pricing
        on the same uptime, so both ways give the same payload.
        """
        rows = self._factor_rows
        if len(indices) != len(rows):
            raise OptimizerError(
                f"expected {len(rows)} choice indices, got {len(indices)}"
            )
        chosen = list(map(tuple.__getitem__, rows, indices))
        up = 1.0
        for factors in chosen:
            up *= factors[0]
        # Cluster i's "others quiet" product multiplies every other
        # cluster's active-up factor in chain order from 1.0.  Its
        # first i factors are the running ``prefix``, so continuing
        # from it performs exactly those multiplications, in order.
        contributions = []
        prefix = 1.0
        for i, factors in enumerate(chosen):
            others_quiet = prefix
            for other in chosen[i + 1:]:
                others_quiet *= other[1]
            contributions.append(factors[2] * others_quiet)
            prefix *= factors[1]
        failover = 0.0
        for contribution in contributions:
            failover += contribution
        breakdown = 1.0 - up
        uptime = 1.0 - (breakdown + failover)
        slippage, penalty, meets_sla = self.price(uptime)
        infra = 0.0
        labor_hours = 0.0
        base = 0.0
        for factors in chosen:
            infra += factors[3]
            labor_hours += factors[4]
            base += factors[5]
        labor_cost = self._labor_cost(labor_hours)
        table = self.model_table
        if table is not None:
            table[indices] = (
                infra, labor_cost, base, uptime, breakdown, failover,
                *contributions,
            )
        return (
            infra,
            labor_cost,
            penalty,
            base,
            uptime,
            slippage,
            breakdown,
            failover,
            meets_sla,
            *contributions,
        )

    def _priced(self, row: ModelRow) -> Payload:
        """A :data:`ModelRow` priced under this engine's contract.

        :meth:`sweep` inlines this; keep the two in step.
        """
        uptime = row[3]
        slippage, penalty, meets_sla = self.price(uptime)
        return (
            row[0], row[1], penalty, row[2], uptime, slippage,
            row[4], row[5], meets_sla, *row[6:],
        )

    def _build_option(
        self, option_id: int, indices: tuple[int, ...], payload: Payload
    ) -> EvaluatedOption:
        """Assemble a lazy option from a candidate's :data:`Payload`.

        The availability factory reconstructs exactly what
        :func:`availability_from_terms` would have built — same values,
        same per-cluster fields — so forcing a lazy report is
        bit-identical to eager evaluation.

        Neither the candidate's :class:`SystemTopology`, its
        :class:`AvailabilityReport` nor its choice names are built here:
        the option carries factories that assemble them on first access.

        A full option table runs this once per evaluated candidate, so
        the hot path stays minimal: the chosen-profile gather is
        deferred into the lazy factories and the per-model constants
        (system name, cluster names, per-choice name rows) are hoisted
        to :class:`EvaluationModel`.  A distilled result runs it only for its
        two recommendations.
        """
        model = self.model
        profiles = model.profiles
        bare_name = model.bare_name
        cluster_names = model.cluster_names
        name_rows = model.choice_name_rows

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
                breakdown_probability=payload[_BREAKDOWN],
                failover_probability=payload[_FAILOVER],
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
                        cluster_names, chosen, payload[_CONTRIBUTIONS:]
                    )
                ),
            )

        def names() -> ChoiceNames:
            return tuple(map(tuple.__getitem__, name_rows, indices))

        return assemble_option(
            option_id,
            names,
            build_system,
            build_availability,
            assemble_breakdown(payload[:_BREAKDOWN]),
            payload[_MEETS_SLA],
            cluster_names,
        )

    def evaluate_many(
        self, enumerated: Iterable[tuple[int, tuple[int, ...]]]
    ) -> Iterator[EvaluatedOption]:
        """Evaluate ``(option_id, indices)`` pairs lazily, in order.

        The input is consumed one pair at a time, so huge candidate
        streams stay O(1) in memory.
        """
        evaluate = self.evaluate
        for option_id, indices in enumerated:
            yield evaluate(option_id, indices)

    def evaluate_all(self) -> Iterator[EvaluatedOption]:
        """Stream every candidate of the space in paper order."""
        return self.evaluate_many(
            enumerate(self.space.candidates_in_paper_order(), start=1)
        )

    def accumulator(
        self, strategy: str, *, keep_options: bool = True
    ) -> ResultAccumulator:
        """An empty result over this engine's space, built by this engine.

        Strategies fold ``(option_id, indices, payload)`` into it; it
        assembles options with :meth:`_build_option` — every folded
        candidate with ``keep_options=True``, only the two winners
        otherwise.
        """
        return ResultAccumulator(
            space_size=self.space.size,
            strategy=strategy,
            keep_options=keep_options,
            build=self._build_option,
            costs=payload_costs,
        )

    def sweep(self, *, keep_options: bool = True) -> OptimizationResult:
        """Exhaustively evaluate the space into an optimization result.

        The engine-level entry point behind the brute-force strategy:
        every candidate is answered as :meth:`payload` answers it and
        folded, in paper order, into :meth:`accumulator` (see
        :meth:`_sweep_payloads`).  With ``keep_options=True`` the
        result holds the full option table; with ``keep_options=False``
        it is distilled to the two recommendations.
        """
        accumulator = self.accumulator("brute-force", keep_options=keep_options)
        accumulator.fold_all(self._sweep_payloads())
        return accumulator.finish()

    def _sweep_payloads(
        self,
    ) -> Iterator[tuple[int, tuple[int, ...], Payload]]:
        """``(option_id, indices, payload)`` for every candidate, in paper order.

        One loop over the model's paper-order tuple: a result-cache hit,
        else a table row priced inline (as :meth:`_priced` prices it),
        else a recombination, each admitted to the result cache.  The
        stats :meth:`payload` would count per candidate are added in
        bulk.  An engine that caches nothing and has no table streams
        the space instead, in O(1) memory.
        """
        results = self._results if self.cache else None
        table = self.model_table
        if results is None and table is None:
            candidates = self.space.candidates_in_paper_order()
        else:
            candidates = self.model.paper_order()
        price = self.price
        recombine = self._recombine
        evaluated = hits = 0
        try:
            for indices in candidates:
                evaluated += 1
                if results is not None:
                    payload = results.get(indices)
                    if payload is not None:
                        hits += 1
                        yield evaluated, indices, payload
                        continue
                row = None if table is None else table.get(indices)
                if row is None:
                    payload = recombine(indices)
                else:
                    uptime = row[3]
                    slippage, penalty, meets_sla = price(uptime)
                    payload = (
                        row[0], row[1], penalty, row[2], uptime, slippage,
                        row[4], row[5], meets_sla, *row[6:],
                    )
                if results is not None:
                    results[indices] = payload
                yield evaluated, indices, payload
        finally:
            stats = self.stats
            stats.candidate_evaluations += evaluated
            stats.cache_hits += hits
            stats.incremental_combines += evaluated - hits


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
