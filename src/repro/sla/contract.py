"""Contract: an uptime SLA paired with a penalty clause.

This is the commercial input to the brokered service (§II-C items 2):
the customer's uptime requirement and what slippage costs the provider.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sla.penalty import LinearPenalty, PenaltyClause
from repro.sla.sla import UptimeSLA
from repro.sla.slippage import expected_slippage_hours_per_month


@dataclass(frozen=True, slots=True)
class Contract:
    """An uptime SLA and the financial consequence of missing it."""

    sla: UptimeSLA
    penalty: PenaltyClause

    @classmethod
    def linear(cls, target_percent: float, penalty_per_hour: float) -> "Contract":
        """The paper's contract shape: ``U_SLA`` % and ``S_P`` $/hour."""
        return cls(
            sla=UptimeSLA(target_percent),
            penalty=LinearPenalty(penalty_per_hour),
        )

    def expected_slippage_hours(self, uptime_probability: float) -> float:
        """Expected slippage hours/month at the given uptime."""
        return expected_slippage_hours_per_month(uptime_probability, self.sla)

    def expected_monthly_penalty(self, uptime_probability: float) -> float:
        """Expected penalty dollars/month at the given uptime.

        Zero whenever the uptime meets the SLA (Eq. 5, second line).
        """
        hours = self.expected_slippage_hours(uptime_probability)
        return self.penalty.monthly_penalty(hours)

    def describe(self) -> str:
        """E.g. ``98% uptime (<= 14.60 h/month down); $100.00/hour...``."""
        return f"{self.sla.describe()}; penalty: {self.penalty.describe()}"
