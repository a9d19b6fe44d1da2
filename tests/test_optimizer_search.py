"""Brute force, pruned search, branch-and-bound: agreement and behaviour."""

from __future__ import annotations

import pytest

from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import engine_for
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.result import OptimizationResult
from repro.workloads.generators import random_problem


def _is_superset_extension(candidate, met) -> bool:
    """True when ``candidate`` extends ``met`` with extra clustered layers.

    The §III-C definition, kept as the oracle: every technology ``met``
    chose is chosen identically by ``candidate``, and ``candidate``
    clusters at least one component that ``met`` left bare.
    """
    extends = False
    for met_choice, candidate_choice in zip(met, candidate):
        if met_choice == "none":
            if candidate_choice != "none":
                extends = True
        elif candidate_choice != met_choice:
            return False
    return extends


def scan_pruned_optimize(problem) -> OptimizationResult:
    """The pruned search that checks every SLA-meeting option per candidate."""
    engine = engine_for(problem, None)
    space = engine.space
    options, sla_meeting, pruned = [], [], 0
    for option_id, indices in enumerate(space.candidates_in_paper_order(), start=1):
        names = space.choice_names(indices)
        if any(_is_superset_extension(names, met) for met in sla_meeting):
            pruned += 1
            continue
        option = engine.evaluate(option_id, indices)
        options.append(option)
        if option.meets_sla:
            sla_meeting.append(names)
    return OptimizationResult(
        options=tuple(options),
        evaluations=len(options),
        pruned=pruned,
        space_size=space.size,
        strategy="pruned",
    )


class TestBruteForce:
    def test_evaluates_everything(self, simple_problem):
        result = brute_force_optimize(simple_problem)
        assert result.evaluations == result.space_size == 8
        assert result.pruned == 0

    def test_option_ids_are_sequential(self, simple_problem):
        result = brute_force_optimize(simple_problem)
        assert [option.option_id for option in result.options] == list(range(1, 9))

    def test_best_is_minimum_tco(self, simple_problem):
        result = brute_force_optimize(simple_problem)
        assert result.best.tco.total == min(
            option.tco.total for option in result.options
        )

    def test_strategy_label(self, simple_problem):
        assert brute_force_optimize(simple_problem).strategy == "brute-force"


class TestSupersetPredicate:
    def test_adding_a_layer_is_extension(self):
        assert _is_superset_extension(
            ("none", "raid-1", "dual-gateway"), ("none", "raid-1", "none")
        )

    def test_equal_assignment_is_not_extension(self):
        assert not _is_superset_extension(
            ("none", "raid-1", "none"), ("none", "raid-1", "none")
        )

    def test_different_technology_is_not_extension(self):
        assert not _is_superset_extension(
            ("none", "raid-10", "dual-gateway"), ("none", "raid-1", "none")
        )

    def test_removing_a_layer_is_not_extension(self):
        assert not _is_superset_extension(
            ("none", "none", "none"), ("none", "raid-1", "none")
        )


class TestPruned:
    def test_same_optimum_as_brute_force(self, simple_problem):
        brute = brute_force_optimize(simple_problem)
        pruned = pruned_optimize(simple_problem)
        assert pruned.best.tco.total == pytest.approx(brute.best.tco.total)
        assert pruned.best.choice_names == brute.best.choice_names

    def test_never_evaluates_more_than_brute_force(self, simple_problem):
        pruned = pruned_optimize(simple_problem)
        assert pruned.evaluations + pruned.pruned == pruned.space_size

    def test_prunes_supersets_of_sla_meeting_options(self, paper_problem):
        # In the calibrated case study #5 meets the SLA, so #8 is clipped
        # (exactly the paper's §III-C example).
        pruned = pruned_optimize(paper_problem)
        evaluated_ids = {option.option_id for option in pruned.options}
        assert 5 in evaluated_ids
        assert 8 not in evaluated_ids
        assert pruned.pruned == 1

    def test_agreement_on_random_problems(self):
        for seed in range(12):
            problem = random_problem(seed, clusters=3, choices_per_layer=2)
            brute = brute_force_optimize(problem)
            pruned = pruned_optimize(problem)
            assert pruned.best.tco.total == pytest.approx(
                brute.best.tco.total
            ), f"seed {seed} diverged"

    def test_agreement_with_wider_choice_sets(self):
        for seed in (3, 17, 29):
            problem = random_problem(seed, clusters=4, choices_per_layer=3)
            brute = brute_force_optimize(problem)
            pruned = pruned_optimize(problem)
            assert pruned.best.tco.total == pytest.approx(brute.best.tco.total)

    @pytest.mark.parametrize("seed", range(40))
    def test_covered_set_prunes_like_the_superset_scan(self, seed):
        """The O(n) covered-set probe skips exactly what the scan skips."""
        import random

        rng = random.Random(seed)
        problem = random_problem(
            seed,
            clusters=rng.randint(1, 5),
            choices_per_layer=rng.randint(1, 3),
        )
        fast = pruned_optimize(problem)
        oracle = scan_pruned_optimize(problem)
        assert fast.pruned == oracle.pruned
        assert [o.option_id for o in fast.options] == [
            o.option_id for o in oracle.options
        ]
        assert [o.choice_names for o in fast.options] == [
            o.choice_names for o in oracle.options
        ]
        assert fast.best.option_id == oracle.best.option_id


class TestBranchAndBound:
    def test_same_optimum_as_brute_force(self, simple_problem):
        brute = brute_force_optimize(simple_problem)
        bnb = branch_and_bound_optimize(simple_problem)
        assert bnb.best.tco.total == pytest.approx(brute.best.tco.total)

    def test_agreement_on_random_problems(self):
        for seed in range(12):
            problem = random_problem(seed, clusters=3, choices_per_layer=2)
            brute = brute_force_optimize(problem)
            bnb = branch_and_bound_optimize(problem)
            assert bnb.best.tco.total == pytest.approx(
                brute.best.tco.total
            ), f"seed {seed} diverged"

    def test_accounting_adds_up(self, simple_problem):
        bnb = branch_and_bound_optimize(simple_problem)
        assert bnb.evaluations + bnb.pruned == bnb.space_size

    def test_prunes_on_case_study(self, paper_problem):
        bnb = branch_and_bound_optimize(paper_problem)
        assert bnb.pruned > 0
        assert bnb.best.option_id == 3

    def test_option_ids_match_paper_order(self, paper_problem):
        bnb = branch_and_bound_optimize(paper_problem)
        brute = brute_force_optimize(paper_problem)
        for option in bnb.options:
            reference = brute.option(option.option_id)
            assert option.choice_names == reference.choice_names
