"""TechnologyRegistry: per-layer choice sets for the optimizer."""

from __future__ import annotations

import pytest

from repro.catalog.base import NoHA
from repro.catalog.hypervisor import HypervisorHA
from repro.catalog.raid import RAID1
from repro.catalog.registry import (
    TechnologyRegistry,
    case_study_registry,
    default_registry,
    extended_registry,
)
from repro.errors import CatalogError
from repro.topology.cluster import ClusterSpec, Layer
from repro.topology.node import NodeSpec


@pytest.fixture
def storage_cluster():
    return ClusterSpec(
        "st", Layer.STORAGE, NodeSpec("disk", 0.02, 5.0, 100.0), total_nodes=1
    )


class TestRegistry:
    def test_none_is_always_first_choice(self):
        registry = TechnologyRegistry()
        for layer in Layer:
            choices = registry.choices_for_layer(layer)
            assert choices[0].name == "none"

    def test_empty_registry_has_one_choice_per_layer(self):
        registry = TechnologyRegistry()
        assert all(
            len(registry.choices_for_layer(layer)) == 1 for layer in Layer
        )

    def test_register_adds_to_right_layer(self):
        registry = TechnologyRegistry()
        registry.register(RAID1())
        assert len(registry.choices_for_layer(Layer.STORAGE)) == 2
        assert len(registry.choices_for_layer(Layer.COMPUTE)) == 1

    def test_duplicate_names_rejected(self):
        registry = TechnologyRegistry()
        registry.register(RAID1())
        with pytest.raises(CatalogError, match="already registered"):
            registry.register(RAID1(failover_minutes=2.0))

    def test_name_none_is_reserved(self):
        # ``none`` names the implicit NoHA choice at index 0; a second
        # choice by that name would collide with it in option labels and
        # be mistaken for "not clustered" by the pruned search.
        class Impostor(RAID1):
            @property
            def name(self) -> str:
                return "none"

        registry = TechnologyRegistry()
        for technology in (NoHA(), Impostor()):
            with pytest.raises(CatalogError, match="reserved"):
                registry.register(technology)
        assert all(
            len(registry.choices_for_layer(layer)) == 1 for layer in Layer
        )

    def test_distinct_names_coexist(self):
        registry = TechnologyRegistry()
        registry.register(HypervisorHA(standby_nodes=1))
        registry.register(HypervisorHA(standby_nodes=2))
        names = [t.name for t in registry.choices_for_layer(Layer.COMPUTE)]
        assert names == ["none", "hypervisor-n+1", "hypervisor-n+2"]

    def test_lookup_by_name(self):
        registry = TechnologyRegistry()
        registry.register(RAID1())
        assert registry.lookup("raid-1", Layer.STORAGE).name == "raid-1"

    def test_lookup_missing_lists_available(self):
        registry = TechnologyRegistry()
        with pytest.raises(CatalogError, match="available"):
            registry.lookup("bogus", Layer.STORAGE)

    def test_choices_for_cluster_uses_layer(self, storage_cluster):
        registry = TechnologyRegistry()
        registry.register(RAID1())
        names = [t.name for t in registry.choices_for_cluster(storage_cluster)]
        assert "raid-1" in names

    def test_choice_counts(self, storage_cluster):
        registry = TechnologyRegistry()
        registry.register(RAID1())
        assert registry.choice_counts((storage_cluster,)) == (2,)

    def test_describe_lists_layers(self):
        text = case_study_registry().describe()
        assert "compute" in text and "storage" in text and "network" in text


class TestStockRegistries:
    def test_case_study_is_k2_everywhere(self):
        registry = case_study_registry()
        for layer in (Layer.COMPUTE, Layer.STORAGE, Layer.NETWORK):
            assert len(registry.choices_for_layer(layer)) == 2

    def test_case_study_technologies_match_paper(self):
        registry = case_study_registry()
        assert registry.lookup("hypervisor-n+1", Layer.COMPUTE)
        assert registry.lookup("raid-1", Layer.STORAGE)
        assert registry.lookup("dual-gateway", Layer.NETWORK)

    def test_case_study_knobs_flow_through(self):
        registry = case_study_registry(
            hypervisor_license_per_node=99.0, hypervisor_failover_minutes=7.0
        )
        tech = registry.lookup("hypervisor-n+1", Layer.COMPUTE)
        assert tech.monthly_license_per_node == 99.0
        assert tech.failover_minutes == 7.0

    def test_default_registry_widens_compute_and_storage(self):
        registry = default_registry()
        assert len(registry.choices_for_layer(Layer.COMPUTE)) == 3
        assert len(registry.choices_for_layer(Layer.STORAGE)) == 3

    def test_extended_registry_choice_counts(self):
        registry = extended_registry()
        assert len(registry.choices_for_layer(Layer.COMPUTE)) == 6
        assert len(registry.choices_for_layer(Layer.STORAGE)) == 4
        assert len(registry.choices_for_layer(Layer.NETWORK)) == 3

    def test_extended_includes_future_work(self):
        registry = extended_registry()
        assert registry.lookup("os-cluster-n+1", Layer.COMPUTE)
        assert registry.lookup("sds-replica-3", Layer.STORAGE)
        assert registry.lookup("storage-multipath", Layer.STORAGE)
        assert registry.lookup("bgp-dual-circuit", Layer.NETWORK)

    def test_extended_includes_dr_postures(self):
        registry = extended_registry()
        assert registry.lookup("warm-standby", Layer.COMPUTE)
        assert registry.lookup("cold-standby", Layer.COMPUTE)
