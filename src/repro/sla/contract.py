"""Contract: an uptime SLA paired with a penalty clause.

This is the commercial input to the brokered service (§II-C items 2):
the customer's uptime requirement and what slippage costs the provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sla.penalty import LinearPenalty, PenaltyClause
from repro.sla.sla import UptimeSLA
from repro.sla.slippage import (
    SLIPPAGE_DIVISOR,
    check_uptime,
    expected_slippage_hours_per_month,
)
from repro.units import MINUTES_PER_YEAR

#: ``uptime -> (slippage hours, penalty, meets SLA)``; see
#: :meth:`Contract.pricing`.
Pricing = Callable[[float], tuple[float, float, bool]]


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

    def pricing(self) -> Pricing:
        """Eq. 5's contract terms as one function of uptime, hoisted once.

        ``pricing()(u)`` is ``(expected_slippage_hours(u),
        expected_monthly_penalty(u), sla.is_met_by(u))`` bit for bit.
        The SLA's target fraction and the clause's penalty at 0
        slippage are computed here, once: an uptime that meets the
        SLA slips 0 hours and owes that penalty, and one that misses
        slips by the float operations of
        :func:`~repro.sla.slippage.expected_slippage_hours_per_month`,
        in the same order.  The evaluation engine prices every
        candidate through one such function, so the clause must not
        change after this call.
        """
        target = self.sla.target_fraction
        monthly_penalty = self.penalty.monthly_penalty
        met = (0.0, monthly_penalty(0.0), True)

        def price(uptime_probability: float) -> tuple[float, float, bool]:
            if not 0.0 <= uptime_probability <= 1.0:
                check_uptime(uptime_probability)
            shortfall = target - uptime_probability
            if shortfall <= 0.0:
                return met
            slippage = shortfall * MINUTES_PER_YEAR / SLIPPAGE_DIVISOR
            return slippage, monthly_penalty(slippage), False

        return price

    def describe(self) -> str:
        """E.g. ``98% uptime (<= 14.60 h/month down); $100.00/hour...``."""
        return f"{self.sla.describe()}; penalty: {self.penalty.describe()}"
