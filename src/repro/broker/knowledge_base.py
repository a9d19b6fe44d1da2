"""The broker's reliability knowledge base.

Wraps the raw telemetry store with the query the optimizer actually
needs: *"give me a node spec for component kind X on provider Y"*.
Estimates carry their sample sizes so callers can reason about
confidence, and a minimum-failures threshold guards against
recommending architectures off two data points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.telemetry import TelemetryStore
from repro.errors import InsufficientTelemetryError
from repro.topology.node import NodeSpec


@dataclass(frozen=True)
class ReliabilityEstimate:
    """A ``(P̂, f̂, t̂)`` triple with its provenance and precision.

    Standard errors use documented first-order approximations:

    - ``f̂``: Poisson counts — ``stderr = sqrt(n) / exposure_years``;
    - ``P̂``: total downtime is a sum of ``n`` outage durations with
      coefficient of variation ~1 each (exponential outages), so
      ``stderr ≈ P̂ / sqrt(n)``;
    - ``t̂``: sample mean — ``stderr = sample_std / sqrt(n)``.
    """

    provider: str
    component_kind: str
    down_probability: float
    failures_per_year: float
    failover_minutes: float
    exposure_years: float
    failure_samples: int
    failover_minutes_std: float = 0.0

    @property
    def down_probability_stderr(self) -> float:
        """Approximate standard error of ``P̂``."""
        if self.failure_samples == 0:
            return 0.0
        return self.down_probability / self.failure_samples**0.5

    @property
    def failures_per_year_stderr(self) -> float:
        """Poisson standard error of ``f̂``."""
        if self.exposure_years <= 0.0:
            return 0.0
        return self.failure_samples**0.5 / self.exposure_years

    @property
    def failover_minutes_stderr(self) -> float:
        """Standard error of the mean failover latency."""
        if self.failure_samples == 0:
            return 0.0
        return self.failover_minutes_std / self.failure_samples**0.5

    def input_uncertainty(self):
        """This estimate as a per-cluster input-uncertainty record."""
        from repro.availability.uncertainty import ClusterInputUncertainty

        return ClusterInputUncertainty(
            sigma_down_probability=self.down_probability_stderr,
            sigma_failures_per_year=self.failures_per_year_stderr,
            sigma_failover_minutes=self.failover_minutes_stderr,
        )

    def describe(self) -> str:
        """E.g. ``metalcloud/volume: P=0.0149 f=5.1/yr t=1.0m (n=255, 50.0 comp-yrs)``."""
        return (
            f"{self.provider}/{self.component_kind}: "
            f"P={self.down_probability:.5f} "
            f"f={self.failures_per_year:.2f}/yr "
            f"t={self.failover_minutes:.2f}m "
            f"(n={self.failure_samples}, {self.exposure_years:.1f} comp-yrs)"
        )


class KnowledgeBase:
    """Estimate queries over a telemetry store."""

    def __init__(self, telemetry: TelemetryStore, min_failure_samples: int = 5) -> None:
        if min_failure_samples < 1:
            raise InsufficientTelemetryError(
                f"min_failure_samples must be >= 1, got {min_failure_samples!r}"
            )
        self.telemetry = telemetry
        self.min_failure_samples = min_failure_samples

    def estimate(self, provider: str, component_kind: str) -> ReliabilityEstimate:
        """The broker's best current estimate for one component class.

        Raises :class:`InsufficientTelemetryError` when the store has no
        exposure or fewer failures than the confidence threshold.  Every
        field comes from one read of the component's stats, so an
        estimate never mixes two telemetry epochs.
        """
        stats = self.telemetry.component_stats(provider, component_kind)
        samples = 0 if stats is None else stats.failures
        if samples < self.min_failure_samples:
            raise InsufficientTelemetryError(
                f"only {samples} failure observations for "
                f"{component_kind!r} on {provider!r}; need at least "
                f"{self.min_failure_samples} for a recommendation"
            )
        stats.require_exposure(provider, component_kind)
        return ReliabilityEstimate(
            provider=provider,
            component_kind=component_kind,
            down_probability=stats.down_probability(),
            failures_per_year=stats.failures_per_year(),
            failover_minutes=stats.failover_minutes(provider, component_kind),
            exposure_years=stats.exposure_years(),
            failure_samples=samples,
            failover_minutes_std=stats.failover_minutes_std(),
        )

    def node_spec(
        self,
        provider: str,
        component_kind: str,
        monthly_cost: float,
    ) -> NodeSpec:
        """Materialize a topology node from the broker's estimates."""
        estimate = self.estimate(provider, component_kind)
        return NodeSpec(
            kind=component_kind,
            down_probability=estimate.down_probability,
            failures_per_year=estimate.failures_per_year,
            monthly_cost=monthly_cost,
        )

    def describe(self) -> str:
        """Every estimate the store can currently support, one per line."""
        lines = ["Broker knowledge base:"]
        for provider, kind in self.telemetry.observed_components():
            try:
                lines.append(f"  {self.estimate(provider, kind).describe()}")
            except InsufficientTelemetryError:
                count = self.telemetry.failure_count(provider, kind)
                lines.append(
                    f"  {provider}/{kind}: insufficient data ({count} failures)"
                )
        return "\n".join(lines)
