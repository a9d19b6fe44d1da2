"""Top-level availability evaluation: Eq. 1 and Eq. 4.

:func:`evaluate_availability` combines the breakdown term (Eq. 2) and
failover term (Eq. 3) into the system downtime ``D_s`` and uptime
``U_s``, together with a per-cluster decomposition for reporting.

Every number in Eq. 1-4 factors into *per-cluster* terms (a cluster's up
probability, its all-active-up probability and its raw failover rate)
combined with O(n) products and sums.  :func:`cluster_availability_terms`
computes one cluster's factor set and :func:`availability_from_terms`
recombines precomputed factor sets — the optimizer's
:class:`~repro.optimizer.engine.EvaluationEngine` caches one
:class:`ClusterTerms` per (cluster, technology) pairing and evaluates
each of the ``k^n`` candidates from the cache instead of re-running the
binomial sums.  The recombination performs the exact same float
operations in the exact same order as the direct evaluation, so both
paths are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.availability.cluster_math import (
    active_nodes_up_probability,
    cluster_up_probability,
)
from repro.availability.downtime import DowntimeBudget
from repro.availability.failover import cluster_yearly_failover_minutes
from repro.topology.cluster import ClusterSpec
from repro.topology.system import SystemTopology
from repro.units import MINUTES_PER_YEAR


@dataclass(frozen=True, slots=True)
class ClusterAvailability:
    """Per-cluster slice of the availability report."""

    name: str
    up_probability: float
    breakdown_probability: float
    failover_contribution: float

    def describe(self) -> str:
        """One-line summary for report tables."""
        return (
            f"{self.name}: up={self.up_probability:.6f} "
            f"breakdown={self.breakdown_probability:.2e} "
            f"failover={self.failover_contribution:.2e}"
        )


@dataclass(frozen=True, slots=True)
class AvailabilityReport:
    """Full evaluation of a system's expected availability.

    Attributes
    ----------
    breakdown_probability:
        ``B_s`` (Eq. 2).
    failover_probability:
        ``F_s`` (Eq. 3).
    clusters:
        Per-cluster decomposition, in chain order.
    """

    system_name: str
    breakdown_probability: float
    failover_probability: float
    clusters: tuple[ClusterAvailability, ...]

    @property
    def downtime_probability(self) -> float:
        """``D_s = B_s + F_s`` (Eq. 1)."""
        return self.breakdown_probability + self.failover_probability

    @property
    def uptime_probability(self) -> float:
        """``U_s = 1 - D_s`` (Eq. 4)."""
        return 1.0 - self.downtime_probability

    @property
    def budget(self) -> DowntimeBudget:
        """The downtime expressed in operator units."""
        return DowntimeBudget(min(max(self.downtime_probability, 0.0), 1.0))

    def describe(self) -> str:
        """Multi-line human summary of the evaluation."""
        lines = [
            f"Availability of {self.system_name!r}: {self.budget.describe()}",
            f"  B_s (breakdown) = {self.breakdown_probability:.6e}",
            f"  F_s (failover)  = {self.failover_probability:.6e}",
        ]
        lines.extend(f"  {cluster.describe()}" for cluster in self.clusters)
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class ClusterTerms:
    """One cluster's factor set in the Eq. 1-4 decomposition.

    Attributes
    ----------
    up_probability:
        ``Pr[C_i up]`` — the binomial sum inside Eq. 2.
    active_up_probability:
        ``(1 - P_i)^(K_i - K̂_i)`` — the "no failover in progress" factor
        of Eq. 3.
    failover_rate:
        ``f_i t_i (K_i - K̂_i) / delta`` — the cluster's raw failover
        downtime fraction before weighting by the other clusters.
    """

    up_probability: float
    active_up_probability: float
    failover_rate: float


def cluster_availability_terms(cluster: ClusterSpec) -> ClusterTerms:
    """Compute one cluster's availability factors (cacheable per spec)."""
    return ClusterTerms(
        up_probability=cluster_up_probability(cluster),
        active_up_probability=active_nodes_up_probability(cluster),
        failover_rate=cluster_yearly_failover_minutes(cluster) / MINUTES_PER_YEAR,
    )


def availability_values_from_terms(
    terms: tuple[ClusterTerms, ...],
) -> tuple[float, float, list[float]]:
    """The bare float math of Eq. 1-4 over per-cluster factor sets.

    Returns ``(breakdown_probability, failover_probability,
    per_cluster_failover_contributions)`` — everything a report needs
    that is not plain per-term data.  Split out so the math can run
    while report *objects* are built lazily elsewhere;
    :func:`availability_from_terms` composes the two, so every path
    performs the identical operations in the identical order and stays
    bit-identical.
    """
    up_product = 1.0
    for term in terms:
        up_product *= term.up_probability

    contributions = []
    for i, term in enumerate(terms):
        others_quiet = 1.0
        for j, other in enumerate(terms):
            if j != i:
                others_quiet *= other.active_up_probability
        contributions.append(term.failover_rate * others_quiet)
    failover_total = 0.0
    for contribution in contributions:  # cluster order, pinned (REP001)
        failover_total += contribution
    return 1.0 - up_product, failover_total, contributions


def availability_from_terms(
    system_name: str,
    cluster_names: tuple[str, ...],
    terms: tuple[ClusterTerms, ...],
) -> AvailabilityReport:
    """Recombine per-cluster factor sets into the full Eq. 1-4 report.

    Performs the same float operations in the same order as evaluating
    the assembled topology directly, so the result is bit-identical to
    :func:`evaluate_availability` on the corresponding system.
    """
    breakdown, failover, contributions = availability_values_from_terms(terms)

    per_cluster = tuple(
        ClusterAvailability(
            name=name,
            up_probability=term.up_probability,
            breakdown_probability=1.0 - term.up_probability,
            failover_contribution=contribution,
        )
        for name, term, contribution in zip(cluster_names, terms, contributions)
    )
    return AvailabilityReport(
        system_name=system_name,
        breakdown_probability=breakdown,
        failover_probability=failover,
        clusters=per_cluster,
    )


def evaluate_availability(system: SystemTopology) -> AvailabilityReport:
    """Evaluate Eq. 1-4 for ``system`` and return the full report."""
    terms = tuple(
        cluster_availability_terms(cluster) for cluster in system.clusters
    )
    return availability_from_terms(system.name, system.cluster_names, terms)


def uptime_probability(system: SystemTopology) -> float:
    """Shortcut for ``evaluate_availability(system).uptime_probability``."""
    return evaluate_availability(system).uptime_probability
