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

try:
    import numpy as np  # noqa: F811
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

requires_numpy = pytest.mark.skipif(
    np is None, reason="numpy not installed (the [vector] extra)"
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


# -- vector evaluation: byte-identical to the scalar methods ---------------

rates = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)

#: NaN-free, non-negative slippage arrays, including the empty array and
#: denormal/tiny magnitudes where float rounding differences would show.
slippage_arrays = st.lists(
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False,
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


@requires_numpy
class TestVectorByteIdentity:
    """``monthly_penalty_vector`` must equal the scalar loop bit-for-bit.

    The vector backend's correctness contract is *byte identity*, not
    approximate equality: every float the vector path produces must have
    the same bit pattern as the scalar method's result, so serial and
    vector backends stay interchangeable in golden-file comparisons.
    """

    @staticmethod
    def assert_bit_identical(clause, hours_list):
        vector = clause.monthly_penalty_vector(np.array(hours_list, dtype=float))
        assert vector.dtype == np.float64
        assert vector.shape == (len(hours_list),)
        scalar = [clause.monthly_penalty(h) for h in hours_list]
        assert [v.hex() for v in vector.tolist()] == [s.hex() for s in scalar]

    @given(clause=penalty_clauses(), hours=slippage_arrays)
    @settings(max_examples=300)
    def test_any_shape_matches_scalar(self, clause, hours):
        self.assert_bit_identical(clause, hours)

    @given(hours=slippage_arrays)
    def test_no_penalty(self, hours):
        self.assert_bit_identical(NoPenalty(), hours)

    @given(rate=rates, hours=slippage_arrays)
    def test_linear(self, rate, hours):
        self.assert_bit_identical(LinearPenalty(rate), hours)

    @given(hours=slippage_arrays)
    def test_tiered_open_tail(self, hours):
        clause = TieredPenalty(
            ((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0))
        )
        self.assert_bit_identical(clause, hours)

    @given(hours=slippage_arrays)
    def test_tiered_closed_tail_extends_last_rate(self, hours):
        self.assert_bit_identical(TieredPenalty(((2.0, 100.0),)), hours)

    @given(cap=rates, rate=rates, hours=slippage_arrays)
    def test_capped(self, cap, rate, hours):
        clause = CappedPenalty(LinearPenalty(rate), monthly_cap=cap)
        self.assert_bit_identical(clause, hours)

    @given(hours=slippage_arrays)
    def test_service_credits(self, hours):
        clause = ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25)))
        self.assert_bit_identical(clause, hours)

    def test_empty_array(self):
        for clause in (
            NoPenalty(),
            LinearPenalty(50.0),
            TieredPenalty(((1.0, 10.0), (float("inf"), 100.0))),
            CappedPenalty(LinearPenalty(100.0), monthly_cap=400.0),
            ServiceCreditPenalty(2000.0, ((1.0, 0.05), (5.0, 0.2))),
        ):
            result = clause.monthly_penalty_vector(np.zeros(0, dtype=float))
            assert result.shape == (0,)
            assert result.dtype == np.float64

    def test_results_are_nan_free(self):
        # The tiered kernel must not evaluate dead lanes (0.0 * inf -> NaN).
        clause = TieredPenalty(((1.0, 10.0), (float("inf"), 100.0)))
        hours = np.array([0.0, 0.5, 1.0, 5.0, 1e308], dtype=float)
        assert not np.isnan(clause.monthly_penalty_vector(hours)).any()
        # The last lane overflows to inf on both paths, silently.
        self.assert_bit_identical(clause, hours.tolist())
        assert clause.monthly_penalty(1e308) == float("inf")

    def test_linear_overflow_saturates_like_scalar(self):
        self.assert_bit_identical(LinearPenalty(100.0), [1.0, 1e308])

    @given(hours=slippage_arrays)
    def test_base_class_fallback_loops_scalar(self, hours):
        class Quadratic(NoPenalty):
            # Custom subclasses that only override the scalar method must
            # still be vector-correct via the base-class fallback loop.
            monthly_penalty_vector = PenaltyClause.monthly_penalty_vector

            def monthly_penalty(self, slippage_hours):
                return 2.0 * slippage_hours * slippage_hours

        self.assert_bit_identical(Quadratic(), hours)

    def test_rejects_negative_entries(self):
        clause = LinearPenalty(50.0)
        with pytest.raises(ValidationError):
            clause.monthly_penalty_vector(np.array([1.0, -0.5], dtype=float))
