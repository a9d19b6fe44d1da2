"""Expected SLA slippage, the time term of Eq. 5.

The paper converts the uptime shortfall into monthly slippage hours:

    slippage_hours/month = (U_SLA/100 - U_s) * delta / (12 * 60)

clamped at zero when the system exceeds its SLA (Eq. 5's second line:
no negative penalties).
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.sla.sla import UptimeSLA
from repro.units import MINUTES_PER_HOUR, MINUTES_PER_YEAR, MONTHS_PER_YEAR

#: The denominator of the shortfall -> hours/month conversion.
SLIPPAGE_DIVISOR = MONTHS_PER_YEAR * MINUTES_PER_HOUR


def check_uptime(uptime_probability: float) -> None:
    """Raise unless ``uptime_probability`` is in [0, 1]."""
    if not 0.0 <= uptime_probability <= 1.0:
        raise ValidationError(
            f"uptime_probability must be in [0, 1], got {uptime_probability!r}"
        )


def expected_slippage_hours_per_month(
    uptime_probability: float,
    sla: UptimeSLA,
) -> float:
    """Expected hours/month of downtime beyond the SLA allowance.

    Returns 0 when ``uptime_probability >= U_SLA/100``.
    :meth:`~repro.sla.contract.Contract.pricing` repeats these float
    operations in this order; keep the two in step.
    """
    check_uptime(uptime_probability)
    shortfall = sla.target_fraction - uptime_probability
    if shortfall <= 0.0:
        return 0.0
    return shortfall * MINUTES_PER_YEAR / SLIPPAGE_DIVISOR

