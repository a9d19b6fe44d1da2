"""Resource-level events emitted by the fault injector.

These are the broker's raw observations: a component of some kind, on
some provider, failed at a time and came back after a duration — or a
cluster-level failover completed in so many minutes.  Telemetry
aggregates streams of these into ``(P̂, f̂, t̂)`` estimates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ValidationError


class ResourceEventKind(str, enum.Enum):
    """What the broker observed."""

    FAILURE = "failure"
    REPAIR = "repair"
    FAILOVER = "failover"


@dataclass(frozen=True, slots=True)
class ResourceEvent:
    """One observation in a provider's event stream.

    ``duration_minutes`` carries the outage length for ``REPAIR`` events
    (time the component was down) and the takeover latency for
    ``FAILOVER`` events; it is 0 for ``FAILURE`` events (the repair
    event closes the outage).
    """

    time_minutes: float
    provider: str
    component_kind: str
    resource_id: str
    kind: ResourceEventKind
    duration_minutes: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time_minutes < math.inf:
            raise ValidationError(
                f"time_minutes must be finite and >= 0, got {self.time_minutes!r}"
            )
        if not 0.0 <= self.duration_minutes < math.inf:
            raise ValidationError(
                "duration_minutes must be finite and >= 0, "
                f"got {self.duration_minutes!r}"
            )

    def describe(self) -> str:
        """E.g. ``[t=41.2m] metalcloud volume failure vol-3``."""
        extra = (
            f" ({self.duration_minutes:.1f}m)" if self.duration_minutes else ""
        )
        return (
            f"[t={self.time_minutes:.1f}m] {self.provider} "
            f"{self.component_kind} {self.kind.value} {self.resource_id}{extra}"
        )
