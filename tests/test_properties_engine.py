"""Property tests: the EvaluationEngine is exactly the direct evaluation.

The engine's contract is strong: for *every* candidate of *any* problem,
the incremental recombination of cached per-cluster terms must equal the
full-topology evaluation to within 1e-12 (in practice: bit-identical),
for all three strategies, with the result cache on or off, and with
parallel chunked evaluation on the process backend.  These tests sweep randomized registries
and topologies plus the calibrated case study.
"""

from __future__ import annotations

import pytest

from repro.errors import OptimizerError
from repro.optimizer.advisor import advise_upgrades
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import (
    brute_force_optimize,
    evaluate_candidate,
    iter_brute_force,
)
from repro.optimizer.engine import EvaluationEngine, engine_for
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.result import OptimizationResult
from repro.workloads.case_study import case_study_problem
from repro.workloads.generators import random_problem

TOL = 1e-12

#: (seed, clusters, choices_per_layer) grid for the randomized sweeps.
RANDOM_GRID = [
    (seed, clusters, choices)
    for seed in range(5)
    for clusters, choices in ((3, 2), (4, 2), (4, 3))
]


def _problems():
    yield case_study_problem()
    for seed, clusters, choices in RANDOM_GRID:
        yield random_problem(seed, clusters=clusters, choices_per_layer=choices)


def _assert_equivalent(direct, incremental):
    assert incremental.option_id == direct.option_id
    assert incremental.choice_names == direct.choice_names
    assert incremental.meets_sla == direct.meets_sla
    assert abs(
        incremental.availability.breakdown_probability
        - direct.availability.breakdown_probability
    ) <= TOL
    assert abs(
        incremental.availability.failover_probability
        - direct.availability.failover_probability
    ) <= TOL
    assert abs(
        incremental.availability.uptime_probability
        - direct.availability.uptime_probability
    ) <= TOL
    for mine, reference in zip(
        incremental.availability.clusters, direct.availability.clusters
    ):
        assert mine.name == reference.name
        assert abs(mine.up_probability - reference.up_probability) <= TOL
        assert abs(
            mine.failover_contribution - reference.failover_contribution
        ) <= TOL
    for field in (
        "ha_infra_cost",
        "ha_labor_cost",
        "expected_penalty",
        "base_infra_cost",
        "uptime_probability",
        "slippage_hours",
    ):
        assert abs(
            getattr(incremental.tco, field) - getattr(direct.tco, field)
        ) <= TOL, field
    assert abs(incremental.tco.total - direct.tco.total) <= TOL
    assert incremental.system == direct.system


class TestEngineMatchesDirectEvaluation:
    def test_every_candidate_equivalent(self):
        for problem in _problems():
            engine = EvaluationEngine(problem)
            space = engine.space
            for option_id, indices in enumerate(
                space.candidates_in_paper_order(), start=1
            ):
                direct = evaluate_candidate(problem, space, option_id, indices)
                _assert_equivalent(direct, engine.evaluate(option_id, indices))

    def test_direct_mode_equivalent(self):
        problem = random_problem(99, clusters=3, choices_per_layer=2)
        incremental = EvaluationEngine(problem)
        direct = EvaluationEngine(problem, mode="direct")
        for option_id, indices in enumerate(
            incremental.space.candidates_in_paper_order(), start=1
        ):
            _assert_equivalent(
                direct.evaluate(option_id, indices),
                incremental.evaluate(option_id, indices),
            )
        assert direct.stats.topology_evaluations > 0
        assert incremental.stats.topology_evaluations == 0

    def test_parallel_equivalent(self):
        for problem in (
            case_study_problem(),
            random_problem(7, clusters=4, choices_per_layer=3),
        ):
            sequential = brute_force_optimize(problem)
            with EvaluationEngine(
                problem, backend="process", chunk_size=16
            ) as engine:
                parallel = brute_force_optimize(problem, engine=engine)
            assert len(parallel.options) == len(sequential.options)
            for direct, option in zip(sequential.options, parallel.options):
                _assert_equivalent(direct, option)

    def test_uncached_engine_equivalent(self):
        problem = random_problem(3, clusters=3, choices_per_layer=2)
        engine = EvaluationEngine(problem, cache=False)
        result = brute_force_optimize(problem, engine=engine)
        assert engine.stats.cache_hits == 0
        reference = brute_force_optimize(problem)
        assert result.best.tco.total == reference.best.tco.total


class TestStrategiesThroughEngine:
    @pytest.mark.parametrize(
        "strategy", [pruned_optimize, branch_and_bound_optimize]
    )
    def test_strategies_agree_with_brute_force(self, strategy):
        for problem in _problems():
            engine = EvaluationEngine(problem)
            brute = brute_force_optimize(problem, engine=engine)
            result = strategy(problem, engine=engine)
            assert abs(result.best.tco.total - brute.best.tco.total) <= TOL
            assert result.best.choice_names == brute.best.choice_names

    def test_parallel_strategies_on_random_problems(self):
        for seed in range(3):
            problem = random_problem(seed, clusters=4, choices_per_layer=2)
            with EvaluationEngine(
                problem, backend="process", chunk_size=8
            ) as engine:
                brute = brute_force_optimize(problem, engine=engine)
                pruned = pruned_optimize(problem, engine=engine)
                bnb = branch_and_bound_optimize(problem, engine=engine)
            assert abs(pruned.best.tco.total - brute.best.tco.total) <= TOL
            assert abs(bnb.best.tco.total - brute.best.tco.total) <= TOL

    def test_case_study_best_is_bit_identical(self, paper_problem):
        reference = evaluate_candidate(
            paper_problem, paper_problem.space(), 3, (0, 1, 0)
        )
        for strategy in (
            brute_force_optimize,
            pruned_optimize,
            branch_and_bound_optimize,
        ):
            best = strategy(paper_problem).best
            assert best.option_id == 3
            assert best.tco.total == reference.tco.total
            assert best.availability.uptime_probability == (
                reference.availability.uptime_probability
            )


class TestEngineCache:
    def test_searches_share_evaluations(self):
        problem = case_study_problem()
        engine = EvaluationEngine(problem)
        brute_force_optimize(problem, engine=engine)
        assert engine.stats.incremental_combines == 8
        pruned_optimize(problem, engine=engine)
        branch_and_bound_optimize(problem, engine=engine)
        # Everything after the exhaustive sweep is a cache hit.
        assert engine.stats.incremental_combines == 8
        assert engine.stats.cache_hits > 0

    def test_advisor_sweeps_reuse_cache(self):
        problem = case_study_problem()
        engine = EvaluationEngine(problem)
        current = ("hypervisor-n+1", "raid-1", "dual-gateway")
        advise_upgrades(problem, current, engine=engine)
        combines_after_first = engine.stats.incremental_combines
        for migration_cost in (100.0, 1000.0, 10_000.0):
            advise_upgrades(
                problem, current, migration_cost=migration_cost, engine=engine
            )
        assert engine.stats.incremental_combines == combines_after_first

    def test_cache_relabels_option_ids(self):
        problem = case_study_problem()
        engine = EvaluationEngine(problem)
        first = engine.evaluate(42, (0, 1, 0))
        relabelled = engine.evaluate(3, (0, 1, 0))
        assert engine.stats.cache_hits == 1
        assert relabelled.option_id == 3
        assert relabelled.tco == first.tco

    def test_engine_rejects_foreign_problem(self):
        with pytest.raises(OptimizerError, match="different problem"):
            engine_for(
                case_study_problem(), EvaluationEngine(random_problem(1))
            )

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(OptimizerError, match="mode"):
            EvaluationEngine(case_study_problem(), mode="quantum")


class TestStreamingResult:
    def test_streamed_result_matches_materialized(self):
        for problem in (
            case_study_problem(),
            random_problem(5, clusters=4, choices_per_layer=3),
        ):
            full = brute_force_optimize(problem)
            distilled = brute_force_optimize(problem, keep_options=False)
            assert distilled.evaluations == full.evaluations
            assert len(distilled.options) <= 2
            assert distilled.best.tco.total == full.best.tco.total
            assert distilled.best.option_id == full.best.option_id
            assert (
                distilled.min_penalty_option.option_id
                == full.min_penalty_option.option_id
            )

    def test_from_stream_counts_without_materializing(self):
        problem = case_study_problem()
        engine = EvaluationEngine(problem)
        result = OptimizationResult.from_stream(
            iter_brute_force(problem, engine),
            space_size=engine.space.size,
            strategy="brute-force",
            keep_options=False,
        )
        assert result.evaluations == 8
        assert result.space_size == 8
        assert result.best.option_id == 3

    def test_distilled_sweep_disables_result_cache(self):
        # keep_options=False advertises O(1) memory; the default engine
        # must not quietly retain every option in its result cache.
        problem = random_problem(8, clusters=4, choices_per_layer=3)
        distilled = brute_force_optimize(problem, keep_options=False)
        assert distilled.evaluations == 192
        # A shared engine passed explicitly keeps caching (caller's call).
        engine = EvaluationEngine(problem)
        brute_force_optimize(problem, engine=engine, keep_options=False)
        assert engine.stats.incremental_combines == 192
        followup = pruned_optimize(problem, engine=engine)
        assert engine.stats.cache_hits >= followup.evaluations

    def test_from_stream_rejects_empty(self):
        with pytest.raises(OptimizerError, match="no evaluated options"):
            OptimizationResult.from_stream(
                iter(()), space_size=8, strategy="brute-force"
            )

    def test_iter_options_streams_paper_order(self, simple_problem):
        result = brute_force_optimize(simple_problem)
        assert [option.option_id for option in result.iter_options()] == list(
            range(1, 9)
        )
