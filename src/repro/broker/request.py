"""Recommendation requests: what a customer hands the broker.

Customers do not know component reliability — that is the broker's
database.  A request therefore describes the base architecture in
*requirement* terms (clusters, layers, node counts, optional SKU
preferences) plus the contract; the broker fills in ``P̂/f̂/t̂`` and
prices when materializing topologies per provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.optimizer.engine import (
    ENGINE_BACKENDS,
    ENGINE_MODES,
    TERM_TABLE_BACKENDS,
)
from repro.sla.contract import Contract
from repro.topology.cluster import COMPONENT_KIND_BY_LAYER, Layer

#: Maps architectural layers to the broker's component-kind vocabulary
#: (defined next to ``Layer`` itself; aliased here for callers).
LAYER_COMPONENT_KIND = COMPONENT_KIND_BY_LAYER

#: Search strategies a request may ask for.
STRATEGIES = ("pruned", "brute-force", "branch-and-bound")


@dataclass(frozen=True)
class ClusterRequirement:
    """One cluster of the customer's base architecture."""

    name: str
    layer: Layer
    nodes: int
    sku: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("ClusterRequirement.name must be non-empty")
        if self.nodes < 1:
            raise ValidationError(f"nodes must be >= 1, got {self.nodes!r}")

    @property
    def component_kind(self) -> str:
        """The telemetry vocabulary word for this cluster's nodes."""
        return LAYER_COMPONENT_KIND[self.layer]


@dataclass(frozen=True)
class RecommendationRequest:
    """A complete brokered-service request (§II-C inputs 1 and 2)."""

    system_name: str
    clusters: tuple[ClusterRequirement, ...]
    contract: Contract
    providers: tuple[str, ...] | None = None
    strategy: str = "pruned"
    engine: str = "incremental"
    backend: str | None = None
    extended_catalog: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.system_name:
            raise ValidationError("system_name must be non-empty")
        if not self.clusters:
            raise ValidationError("request must contain at least one cluster")
        names = [cluster.name for cluster in self.clusters]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate cluster names in request: {names}")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; valid: {STRATEGIES}"
            )
        if self.engine not in ENGINE_MODES:
            raise ValidationError(
                f"unknown engine mode {self.engine!r}; valid: {ENGINE_MODES}"
            )
        if self.backend is not None and self.backend not in ENGINE_BACKENDS:
            raise ValidationError(
                f"unknown evaluation backend {self.backend!r}; "
                f"valid: {ENGINE_BACKENDS}"
            )
        if self.backend in TERM_TABLE_BACKENDS and self.engine == "direct":
            # Reject at the request boundary, like every other bad-shape
            # combination — otherwise it surfaces only as a failed job.
            raise ValidationError(
                f"backend={self.backend!r} requires engine='incremental': "
                "candidates are evaluated from per-cluster term tables, "
                "which cannot drive the full-topology direct path"
            )


def three_tier_request(
    contract: Contract,
    compute_nodes: int = 3,
    system_name: str = "three-tier",
    **kwargs,
) -> RecommendationRequest:
    """Convenience constructor for the classic three-tier request."""
    return RecommendationRequest(
        system_name=system_name,
        clusters=(
            ClusterRequirement("compute", Layer.COMPUTE, compute_nodes),
            ClusterRequirement("storage", Layer.STORAGE, 1),
            ClusterRequirement("network", Layer.NETWORK, 1),
        ),
        contract=contract,
        **kwargs,
    )
