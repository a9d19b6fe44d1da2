"""OptimizationResult: recommendations, lookups, savings, Pareto frontier."""

from __future__ import annotations

import pytest

from repro.errors import OptimizerError
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.pareto import dominates, pareto_frontier
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.result import OptimizationResult


class TestRecommendations:
    def test_min_penalty_option_has_lowest_penalty(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        min_pen = result.min_penalty_option
        assert min_pen.tco.expected_penalty == min(
            option.tco.expected_penalty for option in result.options
        )

    def test_min_penalty_ties_broken_by_cheapest_cha(self, paper_problem):
        # Options #5..#8 all carry zero penalty; #5 has the lowest C_HA.
        result = brute_force_optimize(paper_problem)
        assert result.min_penalty_option.option_id == 5

    def test_savings_vs_reference(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        savings = result.savings_vs(result.option(8))
        assert savings == pytest.approx(
            1 - result.best.tco.total / result.option(8).tco.total
        )

    def test_savings_vs_zero_cost_reference_rejected(self, paper_problem):
        # Under a no-penalty contract option #1 costs exactly $0, making
        # it an invalid savings baseline.
        from repro.optimizer.space import OptimizationProblem
        from repro.sla.contract import Contract

        free_problem = OptimizationProblem(
            base_system=paper_problem.base_system,
            registry=paper_problem.registry,
            contract=Contract.linear(98.0, 0.0),
            labor_rate=paper_problem.labor_rate,
        )
        result = brute_force_optimize(free_problem)
        free_option = result.option(1)
        assert free_option.tco.total == 0.0
        with pytest.raises(OptimizerError):
            result.savings_vs(free_option)

    def test_option_lookup_on_pruned_result_explains(self, paper_problem):
        pruned = pruned_optimize(paper_problem)
        with pytest.raises(OptimizerError, match="pruned"):
            pruned.option(8)

    def test_by_label_is_unique(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        labels = result.by_label()
        assert len(labels) == len(result.options)

    def test_empty_result_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizationResult(
                options=(), evaluations=0, pruned=0, space_size=0, strategy="x"
            )

    def test_describe_mentions_both_recommendations(self, paper_problem):
        text = brute_force_optimize(paper_problem).describe()
        assert "min TCO" in text and "min penalty" in text


class TestPareto:
    def test_frontier_is_subset(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        frontier = pareto_frontier(result.options)
        ids = {option.option_id for option in result.options}
        assert all(option.option_id in ids for option in frontier)
        assert 0 < len(frontier) <= len(result.options)

    def test_frontier_sorted_by_cost(self, paper_problem):
        frontier = pareto_frontier(brute_force_optimize(paper_problem).options)
        costs = [option.tco.ha_cost for option in frontier]
        assert costs == sorted(costs)

    def test_frontier_uptime_strictly_increasing(self, paper_problem):
        frontier = pareto_frontier(brute_force_optimize(paper_problem).options)
        uptimes = [option.tco.uptime_probability for option in frontier]
        assert all(a < b for a, b in zip(uptimes, uptimes[1:]))

    def test_no_frontier_member_dominated(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        frontier = pareto_frontier(result.options)
        for member in frontier:
            assert not any(
                dominates(other, member)
                for other in result.options
                if other is not member
            )

    def test_dominated_options_excluded(self, paper_problem):
        # Option #4 (compute only) costs more than #3 and yields less
        # uptime than #5; it cannot be on the frontier.
        result = brute_force_optimize(paper_problem)
        frontier_ids = {option.option_id for option in pareto_frontier(result.options)}
        assert 4 not in frontier_ids

    def test_free_option_always_on_frontier(self, paper_problem):
        # Option #1 has C_HA = 0; nothing can dominate it on cost.
        result = brute_force_optimize(paper_problem)
        frontier_ids = {option.option_id for option in pareto_frontier(result.options)}
        assert 1 in frontier_ids

    def test_dominates_requires_strictness(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        option = result.option(3)
        assert not dominates(option, option)


class TestLazySystem:
    """EvaluatedOption.system is built on first access (ROADMAP item)."""

    def test_incremental_sweep_defers_topologies(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        assert all(
            not option.system_is_materialized for option in result.options
        )

    def test_labels_and_tables_do_not_force(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        result.describe()  # labels, costs, SLA marks
        assert all(
            not option.system_is_materialized for option in result.options
        )

    def test_access_materializes_once(self, paper_problem):
        result = brute_force_optimize(paper_problem)
        option = result.option(3)
        first = option.system
        assert option.system_is_materialized
        assert option.system is first

    def test_lazy_system_matches_direct_evaluation(self, paper_problem):
        from repro.optimizer.brute_force import evaluate_candidate
        from repro.optimizer.engine import EvaluationEngine

        engine = EvaluationEngine(paper_problem)
        space = engine.space
        for option_id, indices in enumerate(
            space.candidates_in_paper_order(), start=1
        ):
            lazy = engine.evaluate(option_id, indices)
            direct = evaluate_candidate(paper_problem, space, option_id, indices)
            assert lazy.system == direct.system
            assert lazy.tco.total == direct.tco.total

    def test_hit_under_new_id_is_bit_identical_and_lazy(self, paper_problem):
        # The result cache keeps Eq. 1-5 floats, not options, so a hit
        # is a fresh option: equal field for field, down to the bits,
        # with its topology still unbuilt.
        import dataclasses

        from repro.optimizer.engine import EvaluationEngine

        engine = EvaluationEngine(paper_problem)
        first = engine.evaluate(3, (0, 1, 0))
        hit = engine.evaluate(99, (0, 1, 0))
        assert engine.stats.cache_hits == 1
        assert hit.option_id == 99
        assert hit is not first
        assert not hit.system_is_materialized
        assert not hit.availability_is_materialized
        assert hit.choice_names == first.choice_names
        assert hit.meets_sla is first.meets_sla
        assert hit.cluster_names == first.cluster_names
        assert [value.hex() for value in dataclasses.astuple(hit.tco)] == [
            value.hex() for value in dataclasses.astuple(first.tco)
        ]
        assert hit.availability == first.availability
        assert hit.system == first.system
