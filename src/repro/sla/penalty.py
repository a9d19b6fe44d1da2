"""Penalty clauses: dollars owed for SLA slippage.

The paper uses a single shape — a flat rate ``S_P`` per hour of
unavailability beyond the SLA (:class:`LinearPenalty`, Eq. 5).  Real
contracts also use tiered rates, monthly caps, and service credits; those
are provided as extensions behind the same interface so the optimizer is
agnostic to penalty shape.

All clauses map *slippage hours per month* (already net of the SLA
allowance; always >= 0) to a monthly dollar amount.

Every clause also answers :meth:`~PenaltyClause.monthly_penalty_vector`
— the same mapping over a float64 array of slippage hours, one element
per candidate.  The vector paths perform the *same float operations in
the same order* as the scalar paths (explicit per-tier masks instead of
``np.searchsorted`` binning, gather/scatter on the still-live lanes
instead of data-dependent ``break``), so each element is byte-identical
to the scalar result; the optimizer's vectorized evaluation backend
relies on that to stay bit-identical to serial evaluation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ValidationError


def _numpy():
    """Import numpy for a vector penalty path, with a clear failure."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - vector callers guard
        raise ValidationError(
            "vectorized penalty evaluation requires numpy "
            "(pip install .[vector])"
        ) from exc
    return numpy


class PenaltyClause(abc.ABC):
    """Interface: monthly penalty as a function of slippage hours."""

    @abc.abstractmethod
    def monthly_penalty(self, slippage_hours: float) -> float:
        """Dollars owed for ``slippage_hours`` of excess downtime.

        Must return 0 for 0 slippage and be non-decreasing in slippage;
        the optimizer's pruning rule (§III-C) relies on monotonicity.
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable clause summary."""

    def monthly_penalty_vector(self, slippage_hours):
        """Vectorized :meth:`monthly_penalty` over a float64 array.

        ``slippage_hours`` is a one-dimensional float64 ndarray (one
        element per candidate); the result is a float64 ndarray whose
        every element is byte-identical to the scalar
        :meth:`monthly_penalty` of the same input.  This base
        implementation loops over the scalar method so custom clause
        subclasses stay correct without writing vector code; the
        built-in shapes all override it with true vector math.
        """
        np = _numpy()
        return np.array(
            [self.monthly_penalty(hours) for hours in slippage_hours.tolist()],
            dtype=float,
        )

    def _check_slippage(self, slippage_hours: float) -> None:
        if slippage_hours < 0.0:
            raise ValidationError(
                f"slippage_hours must be >= 0, got {slippage_hours!r}; "
                "slippage is computed net of the SLA allowance"
            )

    def _check_slippage_vector(self, slippage_hours) -> None:
        """Array form of :meth:`_check_slippage` (same error contract)."""
        if slippage_hours.size and bool((slippage_hours < 0.0).any()):
            worst = float(slippage_hours.min())
            raise ValidationError(
                f"slippage_hours must be >= 0, got {worst!r}; "
                "slippage is computed net of the SLA allowance"
            )


@dataclass(frozen=True)
class NoPenalty(PenaltyClause):
    """A contract with no financial penalty (best-effort SLA)."""

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        return 0.0

    def monthly_penalty_vector(self, slippage_hours):
        np = _numpy()
        self._check_slippage_vector(slippage_hours)
        return np.zeros(slippage_hours.shape, dtype=float)

    def describe(self) -> str:
        return "no penalty"


@dataclass(frozen=True)
class LinearPenalty(PenaltyClause):
    """The paper's clause: a flat ``S_P`` dollars per slippage hour."""

    rate_per_hour: float

    def __post_init__(self) -> None:
        if self.rate_per_hour < 0.0:
            raise ValidationError(
                f"rate_per_hour must be >= 0, got {self.rate_per_hour!r}"
            )

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        return self.rate_per_hour * slippage_hours

    def monthly_penalty_vector(self, slippage_hours):
        np = _numpy()
        self._check_slippage_vector(slippage_hours)
        # Elementwise float64 multiply is the exact scalar operation.  It
        # saturates to inf on overflow, like Python floats, so numpy's
        # overflow warning is silenced rather than surfaced.
        with np.errstate(over="ignore"):
            return self.rate_per_hour * slippage_hours

    def describe(self) -> str:
        return f"${self.rate_per_hour:,.2f}/hour of slippage"


@dataclass(frozen=True)
class TieredPenalty(PenaltyClause):
    """Escalating rates: each tier prices the hours that fall inside it.

    ``tiers`` is a sequence of ``(width_hours, rate_per_hour)`` pairs;
    the final tier's rate applies to all remaining hours when
    ``open_ended`` (the default).  Example: first 2 hours at $100/h, next
    8 at $250/h, everything beyond at $500/h::

        TieredPenalty(((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0)))
    """

    tiers: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValidationError("TieredPenalty requires at least one tier")
        for width, rate in self.tiers:
            if width <= 0.0:
                raise ValidationError(f"tier width must be > 0, got {width!r}")
            if rate < 0.0:
                raise ValidationError(f"tier rate must be >= 0, got {rate!r}")
        widths = [width for width, _ in self.tiers[:-1]]
        if any(width == float("inf") for width in widths):
            raise ValidationError("only the final tier may be open-ended")

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        remaining = slippage_hours
        total = 0.0
        for width, rate in self.tiers:
            hours_in_tier = min(remaining, width)
            total += hours_in_tier * rate
            remaining -= hours_in_tier
            if remaining <= 0.0:
                break
        if remaining > 0.0:
            # Slippage beyond the last closed tier keeps the final rate.
            total += remaining * self.tiers[-1][1]
        return total

    def monthly_penalty_vector(self, slippage_hours):
        np = _numpy()
        self._check_slippage_vector(slippage_hours)
        # Gather/compute/scatter on the still-live lanes mirrors the
        # scalar loop exactly: each lane sees min -> multiply-accumulate
        # -> subtract in tier order and stops contributing once its
        # remainder hits zero, so no dead lane ever computes (which a
        # np.where over all lanes would, diverging for e.g. inf rates).
        remaining = np.array(slippage_hours, dtype=float)
        total = np.zeros(remaining.shape, dtype=float)
        alive = np.arange(remaining.size)
        # The multiply-accumulates saturate to inf on overflow, like the
        # scalar loop's Python floats, so numpy's warning is silenced.
        with np.errstate(over="ignore"):
            for width, rate in self.tiers:
                if not alive.size:
                    break
                lane_remaining = remaining[alive]
                hours_in_tier = np.minimum(lane_remaining, width)
                total[alive] += hours_in_tier * rate
                lane_remaining = lane_remaining - hours_in_tier
                remaining[alive] = lane_remaining
                alive = alive[lane_remaining > 0.0]
            if alive.size:
                # Slippage beyond the last closed tier keeps the final rate.
                total[alive] += remaining[alive] * self.tiers[-1][1]
        return total

    def describe(self) -> str:
        parts = [f"{width:g}h@${rate:,.0f}" for width, rate in self.tiers]
        return "tiered: " + ", ".join(parts)


@dataclass(frozen=True)
class CappedPenalty(PenaltyClause):
    """Wrap another clause with a monthly cap (common in real contracts)."""

    inner: PenaltyClause
    monthly_cap: float

    def __post_init__(self) -> None:
        if self.monthly_cap < 0.0:
            raise ValidationError(
                f"monthly_cap must be >= 0, got {self.monthly_cap!r}"
            )

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        return min(self.inner.monthly_penalty(slippage_hours), self.monthly_cap)

    def monthly_penalty_vector(self, slippage_hours):
        np = _numpy()
        self._check_slippage_vector(slippage_hours)
        inner = self.inner.monthly_penalty_vector(slippage_hours)
        return np.minimum(inner, self.monthly_cap)

    def describe(self) -> str:
        return f"{self.inner.describe()}, capped at ${self.monthly_cap:,.2f}/month"


@dataclass(frozen=True)
class ServiceCreditPenalty(PenaltyClause):
    """Service credits: a fraction of the monthly contract value.

    ``schedule`` maps slippage-hour thresholds to credit fractions; the
    highest threshold not exceeding the observed slippage applies.  This
    is how hyperscaler SLAs are written (e.g. "10% credit below 99.9%").

    Example: 10% credit after 2 slippage hours, 25% after 10::

        ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25)))
    """

    monthly_contract_value: float
    schedule: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.monthly_contract_value < 0.0:
            raise ValidationError(
                "monthly_contract_value must be >= 0, got "
                f"{self.monthly_contract_value!r}"
            )
        if not self.schedule:
            raise ValidationError("ServiceCreditPenalty requires a schedule")
        previous_threshold = -1.0
        previous_fraction = -1.0
        for threshold, fraction in self.schedule:
            if threshold <= previous_threshold:
                raise ValidationError("schedule thresholds must be increasing")
            if not 0.0 <= fraction <= 1.0:
                raise ValidationError(
                    f"credit fraction must be in [0, 1], got {fraction!r}"
                )
            if fraction < previous_fraction:
                raise ValidationError("credit fractions must be non-decreasing")
            previous_threshold = threshold
            previous_fraction = fraction

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        applicable = 0.0
        for threshold, fraction in self.schedule:
            if slippage_hours >= threshold:
                applicable = fraction
        return applicable * self.monthly_contract_value

    def monthly_penalty_vector(self, slippage_hours):
        np = _numpy()
        self._check_slippage_vector(slippage_hours)
        applicable = np.zeros(slippage_hours.shape, dtype=float)
        for threshold, fraction in self.schedule:
            # Successive overwrite: the highest satisfied threshold wins,
            # exactly like the scalar walk over the schedule.
            applicable = np.where(slippage_hours >= threshold, fraction, applicable)
        return applicable * self.monthly_contract_value

    def describe(self) -> str:
        steps = ", ".join(
            f">={threshold:g}h: {fraction * 100:g}%"
            for threshold, fraction in self.schedule
        )
        return (
            f"service credits on ${self.monthly_contract_value:,.2f}/month "
            f"({steps})"
        )
