"""Penalty clauses: linear (Eq. 5) plus the extension shapes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    PenaltyClause,
    ServiceCreditPenalty,
    TieredPenalty,
)


class TestNoPenalty:
    def test_always_zero(self):
        clause = NoPenalty()
        assert clause.monthly_penalty(0.0) == 0.0
        assert clause.monthly_penalty(100.0) == 0.0

    def test_rejects_negative_slippage(self):
        with pytest.raises(ValidationError):
            NoPenalty().monthly_penalty(-1.0)


class TestLinearPenalty:
    def test_paper_shape(self):
        clause = LinearPenalty(100.0)
        assert clause.monthly_penalty(3.5) == pytest.approx(350.0)

    def test_zero_slippage_is_free(self):
        assert LinearPenalty(100.0).monthly_penalty(0.0) == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            LinearPenalty(-1.0)

    def test_describe_shows_rate(self):
        assert "100" in LinearPenalty(100.0).describe()


class TestTieredPenalty:
    @pytest.fixture
    def clause(self):
        return TieredPenalty(((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0)))

    def test_within_first_tier(self, clause):
        assert clause.monthly_penalty(1.0) == pytest.approx(100.0)

    def test_spanning_two_tiers(self, clause):
        # 2h @ 100 + 3h @ 250.
        assert clause.monthly_penalty(5.0) == pytest.approx(200.0 + 750.0)

    def test_open_ended_tail(self, clause):
        # 2h @ 100 + 8h @ 250 + 10h @ 500.
        assert clause.monthly_penalty(20.0) == pytest.approx(200 + 2000 + 5000)

    def test_closed_final_tier_extends_last_rate(self):
        clause = TieredPenalty(((2.0, 100.0),))
        # Beyond the only (closed) tier the final rate keeps applying.
        assert clause.monthly_penalty(5.0) == pytest.approx(200.0 + 300.0)

    def test_monotone(self, clause):
        values = [clause.monthly_penalty(h) for h in (0.0, 1.0, 3.0, 10.0, 50.0)]
        assert values == sorted(values)

    def test_rejects_empty_tiers(self):
        with pytest.raises(ValidationError):
            TieredPenalty(())

    def test_rejects_infinite_middle_tier(self):
        with pytest.raises(ValidationError):
            TieredPenalty(((float("inf"), 100.0), (2.0, 50.0)))

    def test_rejects_zero_width_tier(self):
        with pytest.raises(ValidationError):
            TieredPenalty(((0.0, 100.0),))


class TestCappedPenalty:
    def test_caps_inner_clause(self):
        clause = CappedPenalty(LinearPenalty(100.0), monthly_cap=500.0)
        assert clause.monthly_penalty(3.0) == pytest.approx(300.0)
        assert clause.monthly_penalty(10.0) == pytest.approx(500.0)

    def test_zero_cap_silences_everything(self):
        clause = CappedPenalty(LinearPenalty(100.0), monthly_cap=0.0)
        assert clause.monthly_penalty(99.0) == 0.0

    def test_rejects_negative_cap(self):
        with pytest.raises(ValidationError):
            CappedPenalty(LinearPenalty(100.0), monthly_cap=-1.0)

    def test_describe_mentions_cap(self):
        clause = CappedPenalty(LinearPenalty(100.0), monthly_cap=500.0)
        assert "500" in clause.describe()


class TestServiceCreditPenalty:
    @pytest.fixture
    def clause(self):
        return ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25)))

    def test_below_first_threshold(self, clause):
        assert clause.monthly_penalty(1.0) == 0.0

    def test_first_credit_band(self, clause):
        assert clause.monthly_penalty(2.0) == pytest.approx(500.0)

    def test_highest_band_wins(self, clause):
        assert clause.monthly_penalty(50.0) == pytest.approx(1250.0)

    def test_step_function_not_interpolated(self, clause):
        assert clause.monthly_penalty(9.99) == pytest.approx(500.0)

    def test_rejects_decreasing_thresholds(self):
        with pytest.raises(ValidationError):
            ServiceCreditPenalty(1000.0, ((5.0, 0.1), (2.0, 0.2)))

    def test_rejects_decreasing_fractions(self):
        with pytest.raises(ValidationError):
            ServiceCreditPenalty(1000.0, ((2.0, 0.3), (5.0, 0.1)))

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ValidationError):
            ServiceCreditPenalty(1000.0, ((2.0, 1.5),))

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValidationError):
            ServiceCreditPenalty(1000.0, ())


class TestMonotonicityContract:
    """Every clause must be non-decreasing (the pruning rule needs it)."""

    @pytest.mark.parametrize(
        "clause",
        [
            NoPenalty(),
            LinearPenalty(50.0),
            TieredPenalty(((1.0, 10.0), (float("inf"), 100.0))),
            CappedPenalty(LinearPenalty(100.0), monthly_cap=400.0),
            ServiceCreditPenalty(2000.0, ((1.0, 0.05), (5.0, 0.2))),
        ],
        ids=["none", "linear", "tiered", "capped", "credits"],
    )
    def test_non_decreasing(self, clause):
        hours = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
        penalties = [clause.monthly_penalty(h) for h in hours]
        assert penalties == sorted(penalties)
        assert penalties[0] == 0.0


# -- any clause shape: the contract the optimizer relies on ----------------

rates = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)

#: NaN-free, non-negative slippage lists, up to magnitudes whose
#: penalties overflow to inf.
slippage_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e308, allow_nan=False,
              allow_infinity=False),
    min_size=0,
    max_size=64,
)


@st.composite
def penalty_clauses(draw):
    """Any of the five clause shapes with random parameters."""
    which = draw(st.integers(min_value=0, max_value=4))
    if which == 0:
        return NoPenalty()
    if which == 1:
        return LinearPenalty(draw(rates))
    if which == 2:
        widths = draw(
            st.lists(
                st.floats(min_value=0.5, max_value=24.0), min_size=1, max_size=4
            )
        )
        tier_rates = draw(
            st.lists(rates, min_size=len(widths), max_size=len(widths))
        )
        open_ended = draw(st.booleans())
        tiers = list(zip(widths, tier_rates))
        if open_ended:
            tiers[-1] = (float("inf"), tiers[-1][1])
        return TieredPenalty(tuple(tiers))
    if which == 3:
        return CappedPenalty(LinearPenalty(draw(rates)), monthly_cap=draw(rates))
    thresholds = sorted(
        set(
            draw(
                st.lists(
                    st.floats(min_value=0.1, max_value=100.0),
                    min_size=1,
                    max_size=4,
                )
            )
        )
    )
    fractions = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(thresholds),
                max_size=len(thresholds),
            )
        )
    )
    return ServiceCreditPenalty(
        draw(st.floats(min_value=0.0, max_value=100_000.0)),
        tuple(zip(thresholds, fractions)),
    )


class TestAnyClauseShape:
    """Random clauses of every shape keep the scalar contract.

    The optimizer calls :meth:`PenaltyClause.monthly_penalty` once per
    candidate and prunes on its monotonicity, so every shape must be
    zero at zero, non-decreasing, never NaN, and saturate to inf on
    overflow like plain float arithmetic.
    """

    @given(clause=penalty_clauses(), hours=slippage_lists)
    @settings(max_examples=300)
    def test_zero_at_zero_and_non_decreasing(self, clause, hours):
        ordered = [0.0, *sorted(hours)]
        penalties = [clause.monthly_penalty(h) for h in ordered]
        assert penalties[0] == 0.0
        assert penalties == sorted(penalties)

    @given(clause=penalty_clauses(), hours=slippage_lists)
    def test_never_nan_or_negative(self, clause, hours):
        for penalty in map(clause.monthly_penalty, hours):
            assert penalty == penalty
            assert penalty >= 0.0

    @given(
        clause=penalty_clauses(),
        hours=st.floats(max_value=-1e-300, allow_nan=False),
    )
    def test_rejects_negative_slippage(self, clause, hours):
        with pytest.raises(ValidationError, match="slippage_hours"):
            clause.monthly_penalty(hours)

    def test_tiered_overflow_saturates_without_nan(self):
        # Past the open tail, the scalar walk stops before a dead tier
        # could compute 0.0 * inf.
        clause = TieredPenalty(((1.0, 10.0), (float("inf"), 100.0)))
        assert clause.monthly_penalty(1e308) == float("inf")
        assert clause.monthly_penalty(1.0) == 10.0

    def test_linear_overflow_saturates(self):
        assert LinearPenalty(100.0).monthly_penalty(1e308) == float("inf")

    def test_custom_clause_needs_only_the_scalar_method(self):
        # A subclass that implements monthly_penalty and describe is a
        # complete clause: the engine prices it exactly as the
        # full-topology oracle does.
        import dataclasses

        from repro.optimizer.brute_force import evaluate_candidate
        from repro.optimizer.engine import EvaluationEngine
        from repro.sla.contract import Contract
        from repro.workloads.case_study import case_study_problem

        class Quadratic(PenaltyClause):
            def monthly_penalty(self, slippage_hours):
                self._check_slippage(slippage_hours)
                return 2.0 * slippage_hours * slippage_hours

            def describe(self):
                return "quadratic"

        base = case_study_problem()
        problem = dataclasses.replace(
            base, contract=Contract(sla=base.contract.sla, penalty=Quadratic())
        )
        engine = EvaluationEngine(problem)
        pairs = enumerate(engine.space.candidates_in_paper_order(), start=1)
        for option_id, indices in pairs:
            option = engine.evaluate(option_id, indices)
            oracle = evaluate_candidate(
                problem, engine.space, option_id, indices
            )
            assert option.tco.expected_penalty.hex() == (
                oracle.tco.expected_penalty.hex()
            )
            assert option.tco.total.hex() == oracle.tco.total.hex()
