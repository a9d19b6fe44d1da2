"""Technology registry: the per-layer choice sets the optimizer explores.

A registry maps each architectural layer to its list of HA choices.  The
*choice count per cluster* is the paper's ``k``; the optimizer enumerates
``k^n`` permutations drawn from the registry.

Three stock registries are provided:

- :func:`case_study_registry` — ``k = 2`` per layer (none / the
  case-study technology), reproducing the paper's 8-option space;
- :func:`default_registry` — a moderate realistic set;
- :func:`extended_registry` — includes every §V future-work technology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.base import HATechnology, NoHA
from repro.catalog.hypervisor import HypervisorHA
from repro.catalog.multipath import StorageMultipath
from repro.catalog.network import BGPDualCircuit, DualGateway
from repro.catalog.os_cluster import OSCluster
from repro.catalog.raid import RAID1, RAID5, RAID6, RAID10
from repro.catalog.sds import SDSReplication
from repro.errors import CatalogError
from repro.topology.cluster import ClusterSpec, Layer


@dataclass
class TechnologyRegistry:
    """Mutable catalog of HA technologies, grouped by layer.

    ``NoHA`` is always implicitly the first choice for every layer, so
    an empty registry still yields one choice per cluster (the bare
    configuration).
    """

    _by_layer: dict[Layer, list[HATechnology]] = field(default_factory=dict)

    def register(self, technology: HATechnology) -> None:
        """Add a technology to its layer's choice list.

        Layer-agnostic technologies (``layer is None``) are registered
        for every layer.  Duplicate names within a layer are rejected,
        and so is the name ``none``: it belongs to the implicit ``NoHA``
        choice, which the optimizer relies on being the only unclustered
        choice of every layer.
        """
        if technology.name == NoHA().name:
            raise CatalogError(
                f"technology name {technology.name!r} is reserved for the "
                "implicit no-HA choice"
            )
        layers = [technology.layer] if technology.layer is not None else list(Layer)
        for layer in layers:
            existing = self._by_layer.setdefault(layer, [])
            if any(entry.name == technology.name for entry in existing):
                raise CatalogError(
                    f"technology {technology.name!r} already registered "
                    f"for layer {layer.value!r}"
                )
            existing.append(technology)

    def choices_for_layer(self, layer: Layer) -> tuple[HATechnology, ...]:
        """All choices for a layer, ``NoHA`` first."""
        return (NoHA(), *self._by_layer.get(layer, ()))

    def choices_for_cluster(self, cluster: ClusterSpec) -> tuple[HATechnology, ...]:
        """All choices applicable to a specific (bare) cluster."""
        return self.choices_for_layer(cluster.layer)

    def lookup(self, name: str, layer: Layer) -> HATechnology:
        """Find a technology by name within a layer's choices."""
        for technology in self.choices_for_layer(layer):
            if technology.name == name:
                return technology
        raise CatalogError(
            f"no technology named {name!r} for layer {layer.value!r}; "
            f"available: {[t.name for t in self.choices_for_layer(layer)]}"
        )

    def choice_counts(self, clusters: tuple[ClusterSpec, ...]) -> tuple[int, ...]:
        """Per-cluster ``k`` values: the size of each choice set."""
        return tuple(len(self.choices_for_cluster(c)) for c in clusters)

    def describe(self) -> str:
        """Multi-line summary of the per-layer choice sets."""
        lines = ["HA technology registry:"]
        for layer in Layer:
            names = [t.name for t in self.choices_for_layer(layer)]
            lines.append(f"  {layer.value}: {', '.join(names)}")
        return "\n".join(lines)


def case_study_registry(
    hypervisor_license_per_node: float = 0.0,
    hypervisor_labor_hours: float = 0.0,
    raid_controller_cost: float = 0.0,
    raid_labor_hours: float = 0.0,
    gateway_vip_cost: float = 0.0,
    gateway_labor_hours: float = 0.0,
    hypervisor_failover_minutes: float = 10.0,
    raid_failover_minutes: float = 1.0,
    gateway_failover_minutes: float = 2.0,
) -> TechnologyRegistry:
    """The paper's §III choice set: ``k = 2`` per layer.

    Compute: VMware-style N+1 hypervisor HA.  Storage: RAID-1.
    Network: dual gateways.  Cost knobs default to zero so tests can
    exercise pure availability; the case-study workload supplies the
    calibrated prices.
    """
    registry = TechnologyRegistry()
    registry.register(
        HypervisorHA(
            standby_nodes=1,
            failover_minutes=hypervisor_failover_minutes,
            monthly_license_per_node=hypervisor_license_per_node,
            monthly_labor_hours=hypervisor_labor_hours,
        )
    )
    registry.register(
        RAID1(
            failover_minutes=raid_failover_minutes,
            monthly_controller_cost=raid_controller_cost,
            monthly_labor_hours=raid_labor_hours,
        )
    )
    registry.register(
        DualGateway(
            failover_minutes=gateway_failover_minutes,
            monthly_vip_cost=gateway_vip_cost,
            monthly_labor_hours=gateway_labor_hours,
        )
    )
    return registry


def default_registry() -> TechnologyRegistry:
    """A moderate realistic choice set (k=3 compute, k=3 storage, k=2 network)."""
    registry = TechnologyRegistry()
    registry.register(HypervisorHA(standby_nodes=1))
    registry.register(HypervisorHA(standby_nodes=2))
    registry.register(RAID1())
    registry.register(RAID10())
    registry.register(DualGateway())
    return registry


def extended_registry() -> TechnologyRegistry:
    """Every technology, including §V future work (k=6 compute, 4 storage).

    Compute: hypervisor N+1, N+2, OS clustering, warm/cold DR standby.
    Storage: RAID-1, SDS 3-replica, multipathing.  Network: dual
    gateway, BGP dual circuit.
    """
    from repro.catalog.dr import ColdStandby, WarmStandby

    registry = TechnologyRegistry()
    registry.register(HypervisorHA(standby_nodes=1))
    registry.register(HypervisorHA(standby_nodes=2))
    registry.register(OSCluster(standby_nodes=1))
    registry.register(WarmStandby())
    registry.register(ColdStandby())
    registry.register(RAID1())
    registry.register(SDSReplication(replica_count=3))
    registry.register(StorageMultipath())
    registry.register(DualGateway())
    registry.register(BGPDualCircuit())
    return registry


__all__ = [
    "TechnologyRegistry",
    "case_study_registry",
    "default_registry",
    "extended_registry",
    # re-exported for convenience when building custom registries
    "HypervisorHA",
    "OSCluster",
    "RAID1",
    "RAID5",
    "RAID6",
    "RAID10",
    "SDSReplication",
    "StorageMultipath",
    "DualGateway",
    "BGPDualCircuit",
]
