"""The candidate space of HA-enabled system variants.

A *candidate* assigns one HA technology (possibly ``none``) to each
cluster of the base architecture: ``k^n`` permutations for ``n``
clusters with ``k`` choices each (§II-C).

Candidates are enumerated in **paper order** — by increasing number of
clustered components, matching how §III-C's pruned search walks the
space and how the paper numbers its case-study options (#1 = no HA,
#2-#4 = one layer clustered, #5-#7 = two layers, #8 = all three).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.base import HATechnology
from repro.catalog.registry import TechnologyRegistry
from repro.cost.rates import LaborRate
from repro.errors import OptimizerError
from repro.sla.contract import Contract
from repro.topology.cluster import ClusterSpec
from repro.topology.system import SystemTopology

#: A candidate's identity: the chosen technology name per cluster,
#: in chain order, e.g. ``("none", "raid-1", "dual-gateway")``.
ChoiceNames = tuple[str, ...]


@dataclass(frozen=True)
class OptimizationProblem:
    """Everything the broker needs to optimize one customer request.

    Parameters
    ----------
    base_system:
        The base architecture.  Any existing HA is stripped: the broker
        explores variants of the *bare* topology.
    registry:
        The HA technology catalog to draw per-cluster choices from.
    contract:
        Uptime SLA plus penalty clause.
    labor_rate:
        Prices each technology's sustainment hours.
    """

    base_system: SystemTopology
    registry: TechnologyRegistry
    contract: Contract
    labor_rate: LaborRate

    @property
    def bare_system(self) -> SystemTopology:
        """The base architecture with all HA removed."""
        return self.base_system.strip_ha()

    def space(self) -> "CandidateSpace":
        """Build the candidate space for this problem."""
        return CandidateSpace(self.bare_system, self.registry)


@dataclass
class CandidateSpace:
    """The ``k^n`` candidate permutations over a bare topology."""

    bare_system: SystemTopology
    registry: TechnologyRegistry
    _choices: tuple[tuple[HATechnology, ...], ...] = field(init=False)
    _applied: dict[tuple[int, int], ClusterSpec] = field(init=False)
    _subset_offsets: dict[tuple[int, ...], int] = field(init=False)

    def __post_init__(self) -> None:
        self._choices = tuple(
            self.registry.choices_for_cluster(cluster)
            for cluster in self.bare_system.clusters
        )
        self._applied = {}
        self._subset_offsets = {}
        for cluster, choices in zip(self.bare_system.clusters, self._choices):
            if not choices:
                raise OptimizerError(
                    f"cluster {cluster.name!r} has an empty choice set"
                )

    @property
    def cluster_count(self) -> int:
        """``n``: number of clusters in the chain."""
        return len(self.bare_system.clusters)

    @property
    def choice_counts(self) -> tuple[int, ...]:
        """Per-cluster ``k`` values (includes the ``none`` choice)."""
        return tuple(len(choices) for choices in self._choices)

    @property
    def size(self) -> int:
        """Total candidates: the product of the per-cluster ``k`` values."""
        return math.prod(self.choice_counts)

    def choices_for(self, cluster_index: int) -> tuple[HATechnology, ...]:
        """The choice set of the ``i``-th cluster (``none`` first)."""
        return self._choices[cluster_index]

    def subsets_in_paper_order(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield ``(clustered positions, candidate count)`` in paper order.

        Subsets ascend by size and, within a size, put later clusters
        in the chain first.  A subset's candidates are
        :meth:`subset_candidates`; there are ``prod(k_i - 1)`` of them
        over its positions (0 when one of them offers only ``none``).
        """
        counts = self.choice_counts
        for size in range(self.cluster_count + 1):
            # Negating the positions sorts "rightmost clusters first"
            # within the same subset size.
            for subset in sorted(
                itertools.combinations(range(self.cluster_count), size),
                key=lambda subset: tuple(-i for i in subset),
            ):
                yield subset, math.prod(counts[i] - 1 for i in subset)

    def subset_candidates(
        self, subset: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        """The candidates that cluster exactly ``subset``, in paper order.

        Every position in ``subset`` takes each non-``none`` choice,
        every other position ``none``; choice indices vary fastest on
        the rightmost position.
        """
        counts = self.choice_counts
        return itertools.product(
            *(
                range(1, counts[i]) if i in subset else range(0, 1)
                for i in range(self.cluster_count)
            )
        )

    def candidates_in_paper_order(self) -> Iterator[tuple[int, ...]]:
        """Yield candidate index vectors ordered the paper's way.

        Primary key: number of clustered (non-``none``) components,
        ascending.  Secondary key: which components are clustered —
        later clusters in the chain first, matching the paper's #2 =
        network, #3 = storage, #4 = compute numbering.  Tertiary key:
        the per-cluster choice indices, so multiple technologies on the
        same subset enumerate deterministically.

        The enumeration is lazy — candidates are generated directly in
        paper order rather than materializing and sorting all ``k^n``
        vectors, so streaming sweeps over huge spaces stay O(n) memory.
        """
        for subset, _ in self.subsets_in_paper_order():
            yield from self.subset_candidates(subset)

    def paper_order_id(self, indices: tuple[int, ...]) -> int:
        """The 1-based paper-order id of one candidate, in O(n).

        Computed arithmetically from memoized per-subset offsets —
        callers that label sparse candidate sets (the advisor, the
        branch-and-bound leaves) never have to enumerate the space.
        """
        if len(indices) != self.cluster_count:
            raise OptimizerError(
                f"expected {self.cluster_count} choice indices, got {len(indices)}"
            )
        counts = self.choice_counts
        for i, choice in enumerate(indices):
            if not 0 <= choice < counts[i]:
                raise OptimizerError(
                    f"choice index {choice} out of range for cluster "
                    f"{self.bare_system.clusters[i].name!r} (k={counts[i]})"
                )
        offsets = self._subset_offsets
        if not offsets:
            # Filled aside and published by one store, so a thread
            # sharing this space never reads a half-built map.
            offsets = {}
            next_id = 1
            for subset, width in self.subsets_in_paper_order():
                if width:
                    offsets[subset] = next_id
                    next_id += width
            self._subset_offsets = offsets
        clustered = tuple(i for i, choice in enumerate(indices) if choice != 0)
        rank = 0
        for position in clustered:
            rank = rank * (counts[position] - 1) + (indices[position] - 1)
        return offsets[clustered] + rank

    def choice_names(self, indices: tuple[int, ...]) -> ChoiceNames:
        """Map an index vector to the per-cluster technology names."""
        return tuple(
            self._choices[i][choice].name for i, choice in enumerate(indices)
        )

    def applied_cluster(self, cluster_index: int, choice_index: int) -> ClusterSpec:
        """The ``i``-th cluster with one technology applied, memoized.

        HA technologies are pure transformations, so each of the ``n*k``
        (cluster, choice) pairings is applied at most once per space; the
        evaluation engine assembles every candidate from these shared
        specs instead of re-applying technologies ``k^n`` times.
        """
        key = (cluster_index, choice_index)
        applied = self._applied.get(key)
        if applied is None:
            cluster = self.bare_system.clusters[cluster_index]
            technologies = self._choices[cluster_index]
            if not 0 <= choice_index < len(technologies):
                raise OptimizerError(
                    f"choice index {choice_index} out of range for cluster "
                    f"{cluster.name!r} (k={len(technologies)})"
                )
            applied = technologies[choice_index].apply(cluster)
            self._applied[key] = applied
        return applied

    def instantiate(self, indices: tuple[int, ...]) -> SystemTopology:
        """Apply the chosen technologies to the bare topology."""
        if len(indices) != self.cluster_count:
            raise OptimizerError(
                f"expected {self.cluster_count} choice indices, got {len(indices)}"
            )
        return SystemTopology(
            name=self.bare_system.name,
            clusters=tuple(
                self.applied_cluster(i, choice)
                for i, choice in enumerate(indices)
            ),
        )
