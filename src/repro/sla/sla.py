"""Uptime service-level agreement.

``U_SLA`` in the paper is expressed as a percentage (e.g. 98).  The SLA
object converts between the percentage, the fraction, and the monthly
downtime allowance implied by the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.units import HOURS_PER_MONTH


@dataclass(frozen=True, slots=True)
class UptimeSLA:
    """A contractual uptime target.

    Parameters
    ----------
    target_percent:
        ``U_SLA`` as a percentage in (0, 100], e.g. ``98.0`` or ``99.95``.
    """

    target_percent: float

    def __post_init__(self) -> None:
        if not 0.0 < self.target_percent <= 100.0:
            raise ValidationError(
                f"target_percent must be in (0, 100], got {self.target_percent!r}"
            )

    @property
    def target_fraction(self) -> float:
        """``U_SLA / 100``: the target as a probability."""
        return self.target_percent / 100.0

    @property
    def allowed_downtime_hours_per_month(self) -> float:
        """Downtime hours/month the contract tolerates without penalty."""
        return (1.0 - self.target_fraction) * HOURS_PER_MONTH

    def is_met_by(self, uptime_probability: float) -> bool:
        """True when an expected uptime meets or exceeds the target."""
        return uptime_probability >= self.target_fraction

    def describe(self) -> str:
        """E.g. ``98.0% uptime (<= 14.60 h/month down)``."""
        return (
            f"{self.target_percent:g}% uptime "
            f"(<= {self.allowed_downtime_hours_per_month:.2f} h/month down)"
        )
