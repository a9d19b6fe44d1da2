"""Cost model: labor rates, C_HA aggregation, and Eq. 5 TCO."""

from __future__ import annotations

import pytest

from repro.cost.rates import CASE_STUDY_LABOR_RATE, LaborRate
from repro.cost.tco import compute_tco, monthly_ha_cost
from repro.errors import ValidationError
from repro.sla.contract import Contract
from repro.topology.builder import TopologyBuilder
from repro.topology.node import NodeSpec


@pytest.fixture
def ha_system():
    host = NodeSpec("host", 0.01, 6.0, monthly_cost=200.0)
    disk = NodeSpec("disk", 0.02, 5.0, monthly_cost=80.0)
    return (
        TopologyBuilder("s")
        .compute(
            "c", host, nodes=4, standby_tolerance=1, failover_minutes=10.0,
            monthly_ha_infra_cost=250.0, monthly_ha_labor_hours=4.0,
        )
        .storage(
            "st", disk, nodes=2, standby_tolerance=1, failover_minutes=1.0,
            monthly_ha_infra_cost=100.0, monthly_ha_labor_hours=2.0,
        )
        .build()
    )


class TestLaborRate:
    def test_monthly_cost(self):
        assert LaborRate(30.0).monthly_cost(4.0) == pytest.approx(120.0)

    def test_zero_rate(self):
        assert LaborRate(0.0).monthly_cost(100.0) == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            LaborRate(-1.0)

    def test_rejects_negative_hours(self):
        with pytest.raises(ValidationError):
            LaborRate(30.0).monthly_cost(-1.0)

    def test_case_study_rate_is_30(self):
        assert CASE_STUDY_LABOR_RATE.dollars_per_hour == 30.0


class TestMonthlyHaCost:
    def test_sums_infra_and_prices_labor(self, ha_system):
        infra, labor = monthly_ha_cost(ha_system, LaborRate(30.0))
        assert infra == pytest.approx(350.0)
        assert labor == pytest.approx(6.0 * 30.0)

    def test_bare_system_costs_nothing(self, ha_system):
        infra, labor = monthly_ha_cost(ha_system.strip_ha(), LaborRate(30.0))
        assert infra == 0.0
        assert labor == 0.0


class TestComputeTco:
    def test_breakdown_components_sum(self, ha_system):
        tco = compute_tco(ha_system, Contract.linear(98.0, 100.0), LaborRate(30.0))
        assert tco.total == pytest.approx(
            tco.ha_infra_cost + tco.ha_labor_cost + tco.expected_penalty
        )

    def test_total_with_base_adds_fleet(self, ha_system):
        tco = compute_tco(ha_system, Contract.linear(98.0, 100.0), LaborRate(30.0))
        # 4 hosts x $200 + 2 disks x $80 = $960.
        assert tco.base_infra_cost == pytest.approx(960.0)
        assert tco.total_with_base == pytest.approx(tco.total + 960.0)

    def test_meeting_sla_means_cha_only(self, ha_system):
        # This HA-everywhere system comfortably beats a 90% SLA.
        tco = compute_tco(ha_system, Contract.linear(90.0, 100.0), LaborRate(30.0))
        assert tco.expected_penalty == 0.0
        assert tco.total == pytest.approx(tco.ha_cost)

    def test_slipping_sla_charges_penalty(self, ha_system):
        bare = ha_system.strip_ha()
        tco = compute_tco(bare, Contract.linear(99.9, 100.0), LaborRate(30.0))
        assert tco.expected_penalty > 0.0
        assert tco.slippage_hours > 0.0

    def test_penalty_consistent_with_contract(self, ha_system):
        contract = Contract.linear(99.9, 100.0)
        tco = compute_tco(ha_system, contract, LaborRate(30.0))
        assert tco.expected_penalty == pytest.approx(
            contract.expected_monthly_penalty(tco.uptime_probability)
        )

    def test_higher_penalty_rate_never_cheaper(self, ha_system):
        bare = ha_system.strip_ha()
        cheap = compute_tco(bare, Contract.linear(99.9, 10.0), LaborRate(30.0))
        dear = compute_tco(bare, Contract.linear(99.9, 1000.0), LaborRate(30.0))
        assert dear.total >= cheap.total

    def test_describe_mentions_tco(self, ha_system):
        tco = compute_tco(ha_system, Contract.linear(98.0, 100.0), LaborRate(30.0))
        assert "TCO" in tco.describe()


class TestOrderedSums:
    """Cost sums are left folds from 0.0 in chain order on every path.

    Shares like 0.1/0.2/0.3 round differently under a compensated sum
    (Python 3.12's builtin ``sum``), so every candidate's TCO fields
    are checked against an explicit fold on the engine, recombining and
    pricing shared model-table rows, and on the full-topology oracle.
    """

    @staticmethod
    def _problem():
        from repro.catalog.raid import RAID1
        from repro.catalog.registry import TechnologyRegistry
        from repro.optimizer.space import OptimizationProblem

        registry = TechnologyRegistry()
        registry.register(RAID1(
            failover_minutes=1.0, monthly_controller_cost=0.1,
            monthly_labor_hours=0.1,
        ))
        builder = TopologyBuilder("shares")
        for index, price in enumerate((0.1, 0.2, 0.3)):
            builder.storage(
                f"st{index}", NodeSpec(f"disk{index}", 0.02, 5.0, price),
                nodes=1,
            )
        return OptimizationProblem(
            base_system=builder.build(),
            registry=registry,
            contract=Contract.linear(99.0, 100.0),
            labor_rate=LaborRate(30.0),
        )

    @staticmethod
    def _fold(values) -> float:
        total = 0.0
        for value in values:
            total += value
        return total

    def test_engine_table_and_oracle_equal_a_left_fold(self):
        import dataclasses
        import math

        from repro.cost.tco import cluster_cost_terms
        from repro.optimizer.brute_force import evaluate_candidate
        from repro.optimizer.engine import EvaluationEngine

        problem = self._problem()
        space = problem.space()
        recombined = EvaluationEngine(problem)
        priced = EvaluationEngine(problem)
        feeder = EvaluationEngine(
            dataclasses.replace(problem, contract=Contract.linear(95.0, 10.0))
        )
        feeder.model_table = priced.model_table = {}
        list(feeder.evaluate_all())
        tables = [
            list(engine.evaluate_all()) for engine in (recombined, priced)
        ]
        compensated_differs = False
        for position, indices in enumerate(space.candidates_in_paper_order()):
            terms = [
                cluster_cost_terms(cluster)
                for cluster in space.instantiate(indices).clusters
            ]
            infra = [term.ha_infra_cost for term in terms]
            hours = [term.ha_labor_hours for term in terms]
            base = [term.base_infra_cost for term in terms]
            expected = (
                self._fold(infra),
                problem.labor_rate.monthly_cost(self._fold(hours)),
                self._fold(base),
            )
            oracle = evaluate_candidate(problem, space, position + 1, indices)
            for option in (tables[0][position], tables[1][position], oracle):
                tco = option.tco
                assert (
                    tco.ha_infra_cost, tco.ha_labor_cost, tco.base_infra_cost
                ) == expected
            compensated_differs |= any(
                self._fold(values) != math.fsum(values)
                for values in (infra, hours, base)
            )
        # The shares do split a left fold from a compensated sum.
        assert compensated_differs

    def test_monthly_ha_cost_keeps_integer_amounts_integer(self):
        host = NodeSpec("host", 0.01, 6.0, monthly_cost=200)
        system = (
            TopologyBuilder("ints")
            .compute(
                "c", host, nodes=3, standby_tolerance=1, failover_minutes=5.0,
                monthly_ha_infra_cost=250, monthly_ha_labor_hours=4,
            )
            .compute(
                "d", host, nodes=3, standby_tolerance=1, failover_minutes=5.0,
                monthly_ha_infra_cost=100, monthly_ha_labor_hours=2,
            )
            .build()
        )
        infra, labor = monthly_ha_cost(system, LaborRate(30))
        assert (infra, labor) == (350, 180)
        assert type(infra) is int
