"""Evaluated options and optimization results.

An :class:`EvaluatedOption` is one HA permutation with its availability
report and TCO breakdown; an :class:`OptimizationResult` is the full
(or pruned) sweep plus the recommendations the paper defines:

- ``best`` — minimum TCO (Eq. 6), the broker's recommendation;
- ``min_penalty_option`` — the cheapest option whose expected penalty is
  minimal (the paper's "if the possibility of slippage penalty is to be
  minimized" alternative, option #5 in the case study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.availability.model import AvailabilityReport
from repro.cost.tco import TCOBreakdown
from repro.errors import OptimizerError
from repro.optimizer.space import ChoiceNames
from repro.topology.system import SystemTopology
from repro.units import format_money

class _LazyField:
    """Data descriptor for fields that accept a build-on-first-read factory.

    The engine's incremental path hands options a zero-argument factory
    instead of a built value; the descriptor invokes it on first read
    and caches the result in the instance dict.  ``system`` stays lazy
    so distilled/streamed sweeps that never look at a topology skip its
    construction (and validation) entirely; ``availability`` stays lazy
    so sweeps that only rank by TCO never build the per-cluster report
    objects.
    """

    __slots__ = ("field_name", "expected_type")

    def __init__(self, field_name, expected_type):
        self.field_name = field_name
        self.expected_type = expected_type

    def __get__(self, option, owner=None):
        if option is None:
            return self
        value = option.__dict__[self.field_name]
        if not isinstance(value, self.expected_type):
            value = value()
            option.__dict__[self.field_name] = value
        return value

    def __set__(self, option, value):
        # Reached only via object.__setattr__ in the frozen dataclass
        # __init__; user-level assignment still raises FrozenInstanceError.
        option.__dict__[self.field_name] = value


@dataclass(frozen=True)
class EvaluatedOption:
    """One HA permutation, fully evaluated.

    ``option_id`` is 1-based in paper order (option #1 = no HA).

    ``system`` and ``availability`` may each be passed either as the
    built value or as a zero-argument factory producing one; a factory
    runs on first attribute access.  ``cluster_names`` carries the
    chain's cluster names so labels and option tables never have to
    force a lazy topology.
    """

    option_id: int
    choice_names: ChoiceNames
    system: SystemTopology = field(repr=False, compare=False)
    availability: AvailabilityReport
    tco: TCOBreakdown
    meets_sla: bool
    cluster_names: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def system_is_materialized(self) -> bool:
        """True once the topology has been built (or was passed built)."""
        return isinstance(self.__dict__["system"], SystemTopology)

    @property
    def availability_is_materialized(self) -> bool:
        """True once the availability report has been built."""
        return isinstance(self.__dict__["availability"], AvailabilityReport)

    @property
    def clustered_components(self) -> tuple[str, ...]:
        """Names of clusters that received an HA technology."""
        names = self.cluster_names
        if names is None:
            names = tuple(cluster.name for cluster in self.system.clusters)
        return tuple(
            name
            for name, choice in zip(names, self.choice_names)
            if choice != "none"
        )

    @property
    def label(self) -> str:
        """Short human label, e.g. ``#3 HA: storage`` or ``#1 no HA``."""
        clustered = self.clustered_components
        if not clustered:
            return f"#{self.option_id} no HA"
        return f"#{self.option_id} HA: {'+'.join(clustered)}"

    def describe(self) -> str:
        """One-line row for option tables."""
        sla_mark = "meets SLA" if self.meets_sla else "slips SLA"
        return (
            f"{self.label:<40} U_s={self.tco.uptime_probability * 100:8.4f}% "
            f"C_HA={format_money(self.tco.ha_cost):>12} "
            f"penalty={format_money(self.tco.expected_penalty):>12} "
            f"TCO={format_money(self.tco.total):>12} ({sla_mark})"
        )


# The dataclass machinery must not see the descriptors as field defaults,
# so they are attached after class creation; frozen __init__ stores through
# their __set__ via object.__setattr__.  Reading ``availability`` in a
# repr/eq materializes it transparently, so semantics are unchanged.
# ``choice_names`` is lazy for the same reason ``availability`` is: a
# distilled sweep ranks by TCO alone, so the per-candidate name-row
# gather is deferred and only ever paid by the two winning options.
EvaluatedOption.system = _LazyField("system", SystemTopology)
EvaluatedOption.availability = _LazyField("availability", AvailabilityReport)
EvaluatedOption.choice_names = _LazyField("choice_names", tuple)


def assemble_option(
    option_id: int,
    choice_names: ChoiceNames,
    system,
    availability,
    tco: TCOBreakdown,
    meets_sla: bool,
    cluster_names: tuple[str, ...] | None,
) -> EvaluatedOption:
    """Hot-path :class:`EvaluatedOption` constructor.

    The frozen ``__init__`` routes every field through
    ``object.__setattr__`` — seven C round-trips per candidate, two of
    which dispatch into the Python-level ``_LazyField.__set__``.  Sweep
    paths build 100k+ options per request, so this assembles the
    instance dict directly instead; the stored state is identical
    (plain fields and lazy factories both live in ``__dict__``, exactly
    where ``__init__`` would have put them), so eq/hash/repr/pickle and
    lazy materialization behave the same.
    """
    option = object.__new__(EvaluatedOption)
    store = option.__dict__
    store["option_id"] = option_id
    store["choice_names"] = choice_names
    store["system"] = system
    store["availability"] = availability
    store["tco"] = tco
    store["meets_sla"] = meets_sla
    store["cluster_names"] = cluster_names
    return option


class ResultAccumulator:
    """Single-pass distillation of evaluated candidates.

    Strategies :meth:`fold` each evaluated candidate as ``(option_id,
    indices, payload)``, or hand a whole stream to :meth:`fold_all`.
    The payload's layout belongs to the engine
    (:data:`~repro.optimizer.engine.Payload`), which supplies both
    readers: ``costs`` maps a payload to its ``(ha_cost, penalty)``,
    and ``build`` turns a folded candidate into an
    :class:`EvaluatedOption`.  :meth:`finish` seals the result.

    With ``keep_options=True`` every candidate is kept, as an option.
    With ``keep_options=False`` only the two running recommendations
    are kept, so million-candidate sweeps hold O(1) candidates in
    memory, and :meth:`finish` assembles just those two options.
    :meth:`fold_all` is the one home of the ``best`` /
    ``min_penalty_option`` tie-breaking rules.
    """

    def __init__(
        self,
        *,
        space_size: int,
        strategy: str,
        build: Callable[[int, tuple[int, ...], tuple], EvaluatedOption],
        costs: Callable[[tuple], tuple[float, float]],
        pruned: int = 0,
        keep_options: bool = True,
    ) -> None:
        self.space_size = space_size
        self.strategy = strategy
        self.pruned = pruned
        self.keep_options = keep_options
        self.count = 0
        self._build = build
        self._costs = costs
        self._kept: list[EvaluatedOption] = []
        # The running leaders, as (option_id, indices, payload).
        self._best = None
        self._best_total = math.inf
        self._best_id = 0
        self._lowest_penalty = math.inf
        self._min_penalty = None
        self._min_penalty_ha_cost = math.inf
        self._min_penalty_id = 0

    def fold(
        self, option_id: int, indices: tuple[int, ...], payload: tuple
    ) -> None:
        """Fold one evaluated candidate by its payload (see :meth:`fold_all`)."""
        self.fold_all(((option_id, indices, payload),))

    def fold_all(
        self, candidates: Iterable[tuple[int, tuple[int, ...], tuple]]
    ) -> None:
        """Fold evaluated ``(option_id, indices, payload)`` candidates, in order.

        A distilled fold offers each candidate to both running
        recommendations, mirroring :attr:`OptimizationResult.best`
        (least ``ha_cost + penalty``, then least id) and
        :attr:`OptimizationResult.min_penalty_option` (least penalty,
        then least ``ha_cost``, then least id), so a distilled result
        answers both recommendations identically.  The leaders' keys
        are held as local scalars and the lexicographic compares are
        spelled out: a brute-force sweep folds its whole space through
        one call.
        """
        count = self.count
        if self.keep_options:
            build = self._build
            kept = self._kept
            for candidate in candidates:
                count += 1
                kept.append(build(*candidate))
            self.count = count
            return
        costs = self._costs
        best = self._best
        best_total = self._best_total
        best_id = self._best_id
        lowest_penalty = self._lowest_penalty
        min_penalty = self._min_penalty
        min_penalty_ha_cost = self._min_penalty_ha_cost
        min_penalty_id = self._min_penalty_id
        for candidate in candidates:
            count += 1
            option_id = candidate[0]
            ha_cost, penalty = costs(candidate[2])
            total = ha_cost + penalty
            if (
                best is None
                or total < best_total
                or (total == best_total and option_id < best_id)
            ):
                best = candidate
                best_total = total
                best_id = option_id
            if min_penalty is None or penalty < lowest_penalty:
                lowest_penalty = penalty
                min_penalty = candidate
                min_penalty_ha_cost = ha_cost
                min_penalty_id = option_id
            elif penalty == lowest_penalty and (
                ha_cost < min_penalty_ha_cost
                or (
                    ha_cost == min_penalty_ha_cost
                    and option_id < min_penalty_id
                )
            ):
                min_penalty = candidate
                min_penalty_ha_cost = ha_cost
                min_penalty_id = option_id
        self.count = count
        self._best = best
        self._best_total = best_total
        self._best_id = best_id
        self._lowest_penalty = lowest_penalty
        self._min_penalty = min_penalty
        self._min_penalty_ha_cost = min_penalty_ha_cost
        self._min_penalty_id = min_penalty_id

    def finish(self) -> "OptimizationResult":
        """Seal the accumulator into an :class:`OptimizationResult`."""
        if self.keep_options:
            stored = tuple(self._kept)
        elif self._best is None:
            stored = ()
        elif self._min_penalty_id == self._best_id:
            stored = (self._build(*self._best),)
        else:
            winners = (self._best, self._min_penalty)
            if self._min_penalty_id < self._best_id:
                winners = winners[::-1]
            stored = tuple(self._build(*winner) for winner in winners)
        return OptimizationResult(
            options=stored,
            evaluations=self.count,
            pruned=self.pruned,
            space_size=self.space_size,
            strategy=self.strategy,
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization sweep.

    Attributes
    ----------
    options:
        Evaluated options, in paper order.  Pruned searches omit the
        candidates they skipped.
    evaluations:
        How many candidates were actually evaluated.
    pruned:
        How many candidates were skipped by pruning (0 for brute force).
    space_size:
        Total ``k^n`` candidates in the space.
    strategy:
        Which search produced this result (``"brute-force"``,
        ``"pruned"``, ``"branch-and-bound"``).
    """

    options: tuple[EvaluatedOption, ...]
    evaluations: int
    pruned: int
    space_size: int
    strategy: str

    def __post_init__(self) -> None:
        if not self.options:
            raise OptimizerError("optimization produced no evaluated options")

    def iter_options(self) -> Iterator[EvaluatedOption]:
        """Iterate the evaluated option table in paper order."""
        return iter(self.options)

    @property
    def best(self) -> EvaluatedOption:
        """Eq. 6: the minimum-TCO option (ties broken by option id)."""
        return min(self.options, key=lambda option: (option.tco.total, option.option_id))

    @property
    def min_penalty_option(self) -> EvaluatedOption:
        """Cheapest option among those with the lowest expected penalty.

        When any option meets the SLA this is the cheapest SLA-meeting
        option — the paper's minimum-slippage-risk recommendation.
        """
        lowest_penalty = min(option.tco.expected_penalty for option in self.options)
        eligible = [
            option
            for option in self.options
            if option.tco.expected_penalty == lowest_penalty
        ]
        return min(eligible, key=lambda option: (option.tco.ha_cost, option.option_id))

    def option(self, option_id: int) -> EvaluatedOption:
        """Look up an evaluated option by its paper-order id."""
        for candidate in self.options:
            if candidate.option_id == option_id:
                return candidate
        raise OptimizerError(
            f"option #{option_id} was not evaluated "
            f"(it may have been pruned); evaluated ids: "
            f"{[option.option_id for option in self.options]}"
        )

    def by_label(self) -> dict[str, EvaluatedOption]:
        """Evaluated options keyed by their human label."""
        return {option.label: option for option in self.options}

    def savings_vs(self, reference: EvaluatedOption) -> float:
        """Fractional TCO savings of ``best`` against a reference option.

        The paper's headline number compares the recommendation with the
        deployed ad-hoc option (#8): ``1 - TCO_best / TCO_reference``.
        """
        if reference.tco.total <= 0.0:
            raise OptimizerError(
                "cannot compute savings against a zero-cost reference"
            )
        return 1.0 - self.best.tco.total / reference.tco.total

    def describe(self) -> str:
        """Multi-line option table plus the two recommendations."""
        lines = [
            f"{self.strategy}: evaluated {self.evaluations}/{self.space_size} "
            f"candidates ({self.pruned} pruned)"
        ]
        lines.extend(option.describe() for option in self.options)
        lines.append(f"recommended (min TCO):     {self.best.label}")
        lines.append(f"recommended (min penalty): {self.min_penalty_option.label}")
        return "\n".join(lines)
