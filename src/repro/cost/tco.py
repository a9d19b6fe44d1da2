"""Total cost of ownership (paper Eq. 5).

    TCO_i = C_HA + max(0, (U_SLA/100 - U_s)) * delta/(12*60) * S_P

where ``C_HA`` is the monthly cost to implement and sustain the HA
construct (infrastructure + labor) and the second term is the expected
monthly slippage penalty.  :class:`TCOBreakdown` keeps the components
itemized so reports can show *why* an option costs what it does.

Like the availability model, Eq. 5 decomposes into per-cluster terms
(HA infrastructure dollars, HA labor hours, base node dollars) summed
over the chain.  :func:`cluster_cost_terms` extracts one cluster's
share and :func:`tco_from_terms` recombines cached shares — the float
operations match :func:`compute_tco` exactly, so the optimizer's
evaluation engine can price candidates from per-(cluster, technology)
caches with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.availability.model import evaluate_availability
from repro.cost.rates import LaborRate
from repro.sla.contract import Contract
from repro.topology.cluster import ClusterSpec
from repro.topology.system import SystemTopology
from repro.units import format_money


@dataclass(frozen=True)
class TCOBreakdown:
    """Itemized monthly cost of one HA-enabled system option.

    Attributes
    ----------
    ha_infra_cost:
        Incremental HA infrastructure dollars/month (extra nodes,
        licenses, replication links) summed over clusters.
    ha_labor_cost:
        HA sustainment labor dollars/month.
    expected_penalty:
        Expected SLA slippage penalty dollars/month (0 when the SLA is
        met in expectation).
    base_infra_cost:
        Dollars/month for the base (pre-HA) node fleet.  Recorded for
        completeness; *not* part of Eq. 5's TCO, which compares HA
        deltas over a fixed base architecture.
    uptime_probability:
        The ``U_s`` used to price the penalty.
    slippage_hours:
        Expected monthly slippage hours behind ``expected_penalty``.
    """

    ha_infra_cost: float
    ha_labor_cost: float
    expected_penalty: float
    base_infra_cost: float
    uptime_probability: float
    slippage_hours: float

    @property
    def ha_cost(self) -> float:
        """``C_HA``: infrastructure plus labor, dollars/month."""
        return self.ha_infra_cost + self.ha_labor_cost

    @property
    def total(self) -> float:
        """Eq. 5 TCO: ``C_HA`` plus expected penalty, dollars/month."""
        return self.ha_cost + self.expected_penalty

    @property
    def total_with_base(self) -> float:
        """TCO including the base node fleet (for absolute budgeting)."""
        return self.total + self.base_infra_cost

    def describe(self) -> str:
        """One-line summary used in option tables."""
        return (
            f"C_HA={format_money(self.ha_cost)} "
            f"(infra {format_money(self.ha_infra_cost)} + "
            f"labor {format_money(self.ha_labor_cost)}), "
            f"penalty={format_money(self.expected_penalty)}, "
            f"TCO={format_money(self.total)}"
        )


def monthly_ha_cost(system: SystemTopology, labor_rate: LaborRate) -> tuple[float, float]:
    """Return ``(infra, labor)`` dollars/month of the system's HA.

    Sums each cluster's incremental HA infrastructure cost and prices
    its sustainment hours at ``labor_rate``.  The sums are left folds in
    chain order, as in :func:`tco_values_from_terms`; the ``0`` seeds
    keep integer amounts integer.
    """
    infra = 0
    labor_hours = 0
    for cluster in system.clusters:  # chain order, pinned (REP001)
        infra += cluster.monthly_ha_infra_cost
        labor_hours += cluster.monthly_ha_labor_hours
    return infra, labor_rate.monthly_cost(labor_hours)


@dataclass(frozen=True, slots=True)
class ClusterCostTerms:
    """One cluster's share of the Eq. 5 cost decomposition."""

    ha_infra_cost: float
    ha_labor_hours: float
    base_infra_cost: float


def cluster_cost_terms(cluster: ClusterSpec) -> ClusterCostTerms:
    """Extract one cluster's cost factors (cacheable per spec).

    Coerced to ``float`` at this single construction point: cluster
    specs built with int dollar amounts would otherwise flow int
    arithmetic into the engine's payloads and shared model-table rows,
    whose floats must match the full-topology oracle's bit for bit.
    """
    return ClusterCostTerms(
        ha_infra_cost=float(cluster.monthly_ha_infra_cost),
        ha_labor_hours=float(cluster.monthly_ha_labor_hours),
        base_infra_cost=float(cluster.monthly_node_cost),
    )


def tco_values_from_terms(
    terms: tuple[ClusterCostTerms, ...],
    uptime_probability: float,
    contract: Contract,
    labor_rate: LaborRate,
) -> tuple[float, float, float, float, float, float]:
    """The bare Eq. 5 float math, as :class:`TCOBreakdown` field values.

    Returns the breakdown's six fields in declaration order, so
    ``TCOBreakdown(*values)`` reconstructs it exactly.  Split out so
    the engine can assemble options from plain floats;
    :func:`tco_from_terms` composes the two, keeping every path
    bit-identical.

    The three sums are explicit left folds from ``0.0`` in chain order,
    as the engine's scalar kernel folds them.  The builtin ``sum`` is
    compensated from Python 3.12 on, so it would round some rate cards
    (shares like 0.1/0.2/0.3) differently there, and reports would
    depend on the interpreter.
    """
    slippage_hours = contract.expected_slippage_hours(uptime_probability)
    penalty = contract.penalty.monthly_penalty(slippage_hours)
    infra = 0.0
    labor_hours = 0.0
    base = 0.0
    for term in terms:  # chain order, pinned (REP001)
        infra += term.ha_infra_cost
        labor_hours += term.ha_labor_hours
        base += term.base_infra_cost
    return (
        infra,
        labor_rate.monthly_cost(labor_hours),
        penalty,
        base,
        uptime_probability,
        slippage_hours,
    )


def tco_from_terms(
    terms: tuple[ClusterCostTerms, ...],
    uptime_probability: float,
    contract: Contract,
    labor_rate: LaborRate,
) -> TCOBreakdown:
    """Price Eq. 5 from cached per-cluster cost terms and a known uptime.

    Sums the per-cluster shares in chain order — the same operations
    :func:`compute_tco` performs on the assembled topology, so results
    are bit-identical.
    """
    return TCOBreakdown(
        *tco_values_from_terms(terms, uptime_probability, contract, labor_rate)
    )


def assemble_breakdown(
    values: tuple[float, float, float, float, float, float],
) -> TCOBreakdown:
    """Hot-path ``TCOBreakdown(*values)`` for sweep evaluation.

    The frozen ``__init__`` routes each of the six fields through
    ``object.__setattr__``; candidate sweeps build one breakdown per
    evaluated option, so this assembles the instance dict directly —
    same stored state, same eq/hash/repr, one C call instead of six.
    ``values`` must be in field declaration order, exactly as
    :func:`tco_values_from_terms` returns them.
    """
    tco = object.__new__(TCOBreakdown)
    store = tco.__dict__
    (
        store["ha_infra_cost"],
        store["ha_labor_cost"],
        store["expected_penalty"],
        store["base_infra_cost"],
        store["uptime_probability"],
        store["slippage_hours"],
    ) = values
    return tco


def compute_tco(
    system: SystemTopology,
    contract: Contract,
    labor_rate: LaborRate,
) -> TCOBreakdown:
    """Evaluate Eq. 5 for one candidate system.

    Runs the availability model (Eq. 1-4), converts the uptime shortfall
    into expected slippage hours, prices them with the contract's penalty
    clause, and returns the itemized breakdown.
    """
    report = evaluate_availability(system)
    terms = tuple(cluster_cost_terms(cluster) for cluster in system.clusters)
    return tco_from_terms(terms, report.uptime_probability, contract, labor_rate)
