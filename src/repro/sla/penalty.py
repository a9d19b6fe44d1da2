"""Penalty clauses: dollars owed for SLA slippage.

The paper uses a single shape — a flat rate ``S_P`` per hour of
unavailability beyond the SLA (:class:`LinearPenalty`, Eq. 5).  Real
contracts also use tiered rates, monthly caps, and service credits; those
are provided as extensions behind the same interface so the optimizer is
agnostic to penalty shape.

All clauses map *slippage hours per month* (already net of the SLA
allowance; always >= 0) to a monthly dollar amount.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ValidationError


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

    def _check_slippage(self, slippage_hours: float) -> None:
        if slippage_hours < 0.0:
            raise ValidationError(
                f"slippage_hours must be >= 0, got {slippage_hours!r}; "
                "slippage is computed net of the SLA allowance"
            )


@dataclass(frozen=True)
class NoPenalty(PenaltyClause):
    """A contract with no financial penalty (best-effort SLA)."""

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        return 0.0

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

    def describe(self) -> str:
        return f"{self.inner.describe()}, capped at ${self.monthly_cap:,.2f}/month"


@dataclass(frozen=True)
class ServiceCreditPenalty(PenaltyClause):
    """Service credits: a fraction of the monthly contract value.

    ``schedule`` maps slippage-hour thresholds (each > 0, increasing)
    to credit fractions; the highest threshold not exceeding the
    observed slippage applies, and none applies at 0 slippage.  This
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
            if not threshold > 0.0:
                # A credit owed at 0 slippage would charge a system
                # that meets its SLA.
                raise ValidationError(
                    f"schedule thresholds must be > 0 hours, got {threshold!r}"
                )
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

    def describe(self) -> str:
        steps = ", ".join(
            f">={threshold:g}h: {fraction * 100:g}%"
            for threshold, fraction in self.schedule
        )
        return (
            f"service credits on ${self.monthly_contract_value:,.2f}/month "
            f"({steps})"
        )
