"""Labor rates used to price HA sustainment effort.

The paper's case study prices labor at $30/hour.  Clusters carry labor
*hours*; the rate converts hours to dollars so that the same topology can
be priced in different labor markets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError


@dataclass(frozen=True, slots=True)
class LaborRate:
    """Hourly labor rate in dollars."""

    dollars_per_hour: float

    def __post_init__(self) -> None:
        if self.dollars_per_hour < 0.0:
            raise ValidationError(
                f"dollars_per_hour must be >= 0, got {self.dollars_per_hour!r}"
            )

    def monthly_cost(self, hours_per_month: float) -> float:
        """Dollars/month for the given monthly labor hours."""
        if hours_per_month < 0.0:
            raise ValidationError(
                f"hours_per_month must be >= 0, got {hours_per_month!r}"
            )
        return self.dollars_per_hour * hours_per_month

    def describe(self) -> str:
        """E.g. ``$30.00/hour labor``."""
        return f"${self.dollars_per_hour:,.2f}/hour labor"


#: The paper's case-study labor rate.
CASE_STUDY_LABOR_RATE = LaborRate(30.0)
