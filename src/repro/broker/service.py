"""The brokered service itself: request in, recommendation out.

:class:`BrokerService` wires the pieces together exactly as Figure 2
sketches: the customer supplies a base architecture and contract; the
broker supplies reliability estimates (telemetry), rate-carded HA prices
(rate cards) and the optimization (``k^n`` enumeration with pruning);
out comes the recommended HA-enabled topology per provider, ranked by
total monthly cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.broker.knowledge_base import KnowledgeBase
from repro.broker.request import ClusterRequirement, RecommendationRequest
from repro.broker.telemetry import TelemetryStore
from repro.cloud.deployment import default_sku
from repro.cloud.faults import FaultInjector
from repro.cloud.provider import CloudProvider, Resource, ResourceKind
from repro.errors import (
    BrokerError,
    InsufficientTelemetryError,
    UnknownNameError,
    unknown_name_message,
)
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import EngineStats
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.result import OptimizationResult
from repro.rng import make_rng
from repro.topology.builder import TopologyBuilder
from repro.topology.cluster import Layer
from repro.topology.system import SystemTopology
from repro.units import MINUTES_PER_YEAR, format_money

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.broker.api import BrokerSession, EngineCache

_STRATEGY_FUNCTIONS = {
    "pruned": pruned_optimize,
    "brute-force": brute_force_optimize,
    "branch-and-bound": branch_and_bound_optimize,
}

#: Fleet size per component kind used by ``observe_provider``.
_DEFAULT_FLEET = {"vm": 40, "volume": 25, "gateway": 10}


def broker_rng(seed: int | random.Random | None) -> random.Random:
    """The broker's single seed-normalization point.

    Every stochastic entry point of the service (synthetic telemetry
    observation, fault injection) funnels its ``seed`` argument through
    here, so one integer seed pins the whole observation pipeline:
    passing the same int twice replays the identical event stream, and
    passing a shared :class:`random.Random` lets callers interleave
    several observations on one reproducible stream.
    """
    return make_rng(seed)


@dataclass(frozen=True)
class ProviderRecommendation:
    """The optimization outcome for one candidate provider."""

    provider_name: str
    base_system: SystemTopology
    result: OptimizationResult
    engine_stats: EngineStats | None = None

    @property
    def monthly_total(self) -> float:
        """Best option's Eq. 5 TCO plus the provider's base infra cost."""
        return self.result.best.tco.total_with_base

    def describe(self) -> str:
        """One-line provider ranking row."""
        best = self.result.best
        return (
            f"{self.provider_name:<12} {best.label:<28} "
            f"U_s={best.tco.uptime_probability * 100:8.4f}%  "
            f"base={format_money(best.tco.base_infra_cost):>12}  "
            f"TCO+base={format_money(self.monthly_total):>12}"
        )


@dataclass(frozen=True)
class RecommendationReport:
    """The broker's answer: per-provider results, best placement first."""

    request_name: str
    recommendations: tuple[ProviderRecommendation, ...]

    def __post_init__(self) -> None:
        if not self.recommendations:
            raise BrokerError("recommendation report has no providers")

    @property
    def best(self) -> ProviderRecommendation:
        """The cheapest provider placement (including base infra)."""
        return min(self.recommendations, key=lambda rec: rec.monthly_total)

    def for_provider(self, provider_name: str) -> ProviderRecommendation:
        """Look up one provider's recommendation."""
        for recommendation in self.recommendations:
            if recommendation.provider_name == provider_name:
                return recommendation
        raise UnknownNameError(
            unknown_name_message(
                "provider",
                provider_name,
                [rec.provider_name for rec in self.recommendations],
                label="have",
            )
        )

    def describe(self) -> str:
        """Ranked multi-line summary across providers."""
        ranked = sorted(self.recommendations, key=lambda rec: rec.monthly_total)
        lines = [f"Brokered recommendation for {self.request_name!r}:"]
        lines.extend(f"  {recommendation.describe()}" for recommendation in ranked)
        lines.append(
            f"  => place on {self.best.provider_name} as "
            f"{self.best.result.best.label}"
        )
        return "\n".join(lines)


class BrokerService:
    """A hybrid cloud service broker (Figure 2)."""

    def __init__(
        self,
        providers: tuple[CloudProvider, ...],
        telemetry: TelemetryStore | None = None,
        min_failure_samples: int = 5,
    ) -> None:
        if not providers:
            raise BrokerError("broker needs at least one provider")
        names = [provider.name for provider in providers]
        if len(set(names)) != len(names):
            raise BrokerError(f"duplicate provider names: {names}")
        self.providers = {provider.name: provider for provider in providers}
        self.telemetry = telemetry or TelemetryStore()
        self.knowledge_base = KnowledgeBase(
            self.telemetry, min_failure_samples=min_failure_samples
        )

    # -- telemetry acquisition ---------------------------------------------

    def observe_provider(
        self,
        provider_name: str,
        years: float = 3.0,
        fleet: dict[str, int] | None = None,
        seed: int | random.Random | None = None,
    ) -> int:
        """Accumulate ``years`` of synthetic fleet observations.

        Stands in for the broker's long-timeline production visibility:
        provisions a monitoring fleet per component kind, replays the
        provider's ground-truth failure processes over the horizon, and
        ingests the resulting event stream.  Returns events ingested.
        """
        if years <= 0.0:
            raise BrokerError(f"years must be > 0, got {years!r}")
        provider = self.provider(provider_name)
        fleet = dict(_DEFAULT_FLEET, **(fleet or {}))
        horizon = years * MINUTES_PER_YEAR
        rng = broker_rng(seed)

        resources: list[Resource] = []
        for kind_name, count in fleet.items():
            kind = ResourceKind(kind_name)
            sku = _observation_sku(provider, kind)
            for _ in range(count):
                if kind is ResourceKind.VOLUME:
                    resources.append(provider.provision_volume(sku, role="telemetry"))
                elif kind is ResourceKind.GATEWAY:
                    resources.append(provider.provision_gateway(sku, role="telemetry"))
                else:
                    resources.append(provider.provision_vm(sku, role="telemetry"))
            self.telemetry.register_exposure(
                provider.name, kind_name, count, horizon
            )

        injector = FaultInjector(provider, seed=rng)
        events = injector.inject(resources, horizon_minutes=horizon)
        ingested = self.telemetry.ingest(events)
        for resource in resources:
            provider.deprovision(resource.resource_id)
        return ingested

    def observe_all(
        self,
        years: float = 3.0,
        seed: int | random.Random | None = None,
    ) -> int:
        """Observe every registered provider; returns total events.

        The seed is normalized once through :func:`broker_rng` and the
        resulting stream is shared across providers in sorted-name
        order, so a single int seed reproduces the whole fleet's
        telemetry exactly.
        """
        rng = broker_rng(seed)
        return sum(
            self.observe_provider(name, years=years, seed=rng)
            for name in sorted(self.providers)
        )

    # -- recommendation ----------------------------------------------------

    def provider(self, name: str) -> CloudProvider:
        """Look up a registered provider by name."""
        try:
            return self.providers[name]
        except KeyError as exc:
            raise UnknownNameError(
                unknown_name_message(
                    "provider", name, self.providers, label="registered"
                )
            ) from exc

    def materialize_topology(
        self, request: RecommendationRequest, provider: CloudProvider
    ) -> SystemTopology:
        """Fill a request's requirements with estimates and prices.

        Node reliability comes from the knowledge base (never from the
        provider's ground truth — the broker only knows what it has
        observed); node prices come from the provider's catalog.
        """
        builder = TopologyBuilder(request.system_name)
        for requirement in request.clusters:
            sku_name = requirement.sku or default_sku(provider, requirement.layer)
            monthly_cost = _sku_price(provider, requirement, sku_name)
            node = self.knowledge_base.node_spec(
                provider.name, requirement.component_kind, monthly_cost
            )
            builder.add_cluster(
                name=requirement.name,
                layer=requirement.layer,
                node=node,
                nodes=requirement.nodes,
            )
        return builder.build()

    def session(
        self,
        *,
        engine_cache: "EngineCache | None" = None,
        cache_capacity: int | None = None,
        max_workers: int | None = None,
        max_finished_jobs: int | None = None,
        finished_job_ttl: float | None = None,
        backend: str | None = None,
        tracer=None,
        job_id_start: int | None = None,
        job_id_stride: int | None = None,
    ) -> "BrokerSession":
        """Open a v2 :class:`~repro.broker.api.BrokerSession` over this broker.

        The session is the supported entry point for recommendations:
        it owns the cross-request engine cache, the batched/async job
        lifecycle and the streaming protocol.  Keyword arguments default
        to the session's own defaults when ``None``; ``backend`` sets
        the session's default evaluation backend, ``finished_job_ttl``
        enables age-based eviction of finished (even never-retrieved)
        jobs.  ``tracer`` (a :class:`repro.obs.Tracer`) enables per-phase span
        recording; ``None`` leaves tracing disabled at zero cost.
        ``job_id_start``/``job_id_stride`` mint job ids from an
        arithmetic progression so partitioned worker processes can issue
        ids from disjoint sequences (see :mod:`repro.server.gateway`).
        """
        from repro.broker.api import BrokerSession

        kwargs: dict = {
            "engine_cache": engine_cache,
            "finished_job_ttl": finished_job_ttl,
            "backend": backend,
            "tracer": tracer,
        }
        if cache_capacity is not None:
            kwargs["cache_capacity"] = cache_capacity
        if max_workers is not None:
            kwargs["max_workers"] = max_workers
        if max_finished_jobs is not None:
            kwargs["max_finished_jobs"] = max_finished_jobs
        if job_id_start is not None:
            kwargs["job_id_start"] = job_id_start
        if job_id_stride is not None:
            kwargs["job_id_stride"] = job_id_stride
        return BrokerSession(self, **kwargs)


def _observation_sku(provider: CloudProvider, kind: ResourceKind) -> str:
    """Cheapest SKU per kind — telemetry fleets don't need big boxes."""
    card = provider.rate_card
    if kind is ResourceKind.VOLUME:
        return card.volume_types[0].name
    if kind is ResourceKind.GATEWAY:
        return card.gateway_types[0].name
    return card.instance_types[0].name


def _sku_price(
    provider: CloudProvider, requirement: ClusterRequirement, sku_name: str
) -> float:
    """Monthly price of the SKU serving a requirement."""
    card = provider.rate_card
    if requirement.layer is Layer.STORAGE:
        return card.volume_type(sku_name).monthly_price
    if requirement.layer is Layer.NETWORK:
        return card.gateway_type(sku_name).monthly_price
    return card.instance_type(sku_name).monthly_price
