"""BrokerService end-to-end plus requests, rate cards and marketplace."""

from __future__ import annotations

import pytest

from repro.broker.marketplace import compare_providers
from repro.broker.ratecard import registry_for_provider
from repro.broker.request import (
    ClusterRequirement,
    RecommendationRequest,
    three_tier_request,
)
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers, metalcloud
from repro.errors import BrokerError, InsufficientTelemetryError, ValidationError
from repro.sla.contract import Contract
from repro.topology.cluster import Layer


def recommend(broker: BrokerService, request):
    """Serve one request through a fresh broker session."""
    with broker.session() as session:
        return session.recommend(request)


@pytest.fixture(scope="module")
def observed_broker() -> BrokerService:
    """A broker that has watched all three providers for 5 synthetic years."""
    broker = BrokerService(all_providers())
    broker.observe_all(years=5.0, seed=11)
    return broker


@pytest.fixture
def contract() -> Contract:
    return Contract.linear(98.0, 100.0)


class TestRequestValidation:
    def test_three_tier_helper(self, contract):
        request = three_tier_request(contract)
        assert [c.layer for c in request.clusters] == [
            Layer.COMPUTE, Layer.STORAGE, Layer.NETWORK,
        ]

    def test_component_kind_mapping(self, contract):
        request = three_tier_request(contract)
        assert [c.component_kind for c in request.clusters] == [
            "vm", "volume", "gateway",
        ]

    def test_rejects_duplicate_cluster_names(self, contract):
        with pytest.raises(ValidationError, match="duplicate"):
            RecommendationRequest(
                system_name="s",
                clusters=(
                    ClusterRequirement("a", Layer.COMPUTE, 1),
                    ClusterRequirement("a", Layer.STORAGE, 1),
                ),
                contract=contract,
            )

    def test_rejects_unknown_strategy(self, contract):
        with pytest.raises(ValidationError, match="strategy"):
            three_tier_request(contract, strategy="quantum")

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValidationError):
            ClusterRequirement("a", Layer.COMPUTE, 0)


class TestRateCardRegistry:
    def test_builds_case_study_choices(self):
        registry = registry_for_provider(metalcloud())
        assert registry.lookup("hypervisor-n+1", Layer.COMPUTE)
        assert registry.lookup("raid-1", Layer.STORAGE)
        assert registry.lookup("dual-gateway", Layer.NETWORK)

    def test_failover_estimates_flow_through(self):
        registry = registry_for_provider(
            metalcloud(), failover_minutes={"vm": 99.0}
        )
        assert registry.lookup("hypervisor-n+1", Layer.COMPUTE).failover_minutes == 99.0

    def test_extended_catalog_widens_choices(self):
        narrow = registry_for_provider(metalcloud())
        wide = registry_for_provider(metalcloud(), extended=True)
        assert len(wide.choices_for_layer(Layer.STORAGE)) > len(
            narrow.choices_for_layer(Layer.STORAGE)
        )

    def test_addon_prices_from_rate_card(self):
        registry = registry_for_provider(metalcloud())
        raid = registry.lookup("raid-1", Layer.STORAGE)
        assert raid.monthly_controller_cost == 30.0


class TestBrokerService:
    def test_needs_providers(self):
        with pytest.raises(BrokerError):
            BrokerService(())

    def test_rejects_duplicate_providers(self):
        with pytest.raises(BrokerError, match="duplicate"):
            BrokerService((metalcloud(), metalcloud()))

    def test_unknown_provider_lookup(self, observed_broker):
        with pytest.raises(BrokerError, match="registered"):
            observed_broker.provider("nimbus")

    def test_unobserved_broker_cannot_recommend(self, contract):
        broker = BrokerService((metalcloud(),))
        with pytest.raises(InsufficientTelemetryError):
            recommend(broker, three_tier_request(contract))

    def test_recommend_covers_all_providers(self, observed_broker, contract):
        report = recommend(observed_broker, three_tier_request(contract))
        names = {rec.provider_name for rec in report.recommendations}
        assert names == {"metalcloud", "stratus", "cumulus"}

    def test_provider_subset_respected(self, observed_broker, contract):
        request = three_tier_request(contract, providers=("stratus",))
        report = recommend(observed_broker, request)
        assert [rec.provider_name for rec in report.recommendations] == ["stratus"]

    def test_metalcloud_reproduces_paper_recommendation(self, observed_broker, contract):
        """With telemetry-estimated inputs the broker still lands on the
        paper's option #3 for the metalcloud (SoftLayer-like) provider."""
        report = recommend(observed_broker, three_tier_request(contract))
        metalcloud_best = report.for_provider("metalcloud").result.best
        assert metalcloud_best.clustered_components == ("storage",)

    def test_strategies_agree(self, observed_broker, contract):
        by_strategy = {}
        for strategy in ("pruned", "brute-force", "branch-and-bound"):
            request = three_tier_request(contract, strategy=strategy)
            report = recommend(observed_broker, request)
            by_strategy[strategy] = report.for_provider("metalcloud").result.best.tco.total
        assert len({round(v, 6) for v in by_strategy.values()}) == 1

    def test_materialized_topology_uses_estimates(self, observed_broker, contract):
        request = three_tier_request(contract)
        topology = observed_broker.materialize_topology(
            request, observed_broker.provider("metalcloud")
        )
        node = topology.cluster("compute").node
        truth = observed_broker.provider("metalcloud").reliability.triple("vm")[0]
        assert node.down_probability == pytest.approx(truth, rel=0.25)

    def test_report_best_is_cheapest_total(self, observed_broker, contract):
        report = recommend(observed_broker, three_tier_request(contract))
        assert report.best.monthly_total == min(
            rec.monthly_total for rec in report.recommendations
        )

    def test_describe_ranks_providers(self, observed_broker, contract):
        text = recommend(observed_broker, three_tier_request(contract)).describe()
        assert "place on" in text


class TestMarketplace:
    def test_ranked_by_total(self, observed_broker, contract):
        comparison = compare_providers(
            observed_broker, three_tier_request(contract)
        )
        totals = [entry.monthly_total for entry in comparison.ranked]
        assert totals == sorted(totals)

    def test_winner_is_first(self, observed_broker, contract):
        comparison = compare_providers(
            observed_broker, three_tier_request(contract)
        )
        assert comparison.winner is comparison.ranked[0]

    def test_premium_over_winner(self, observed_broker, contract):
        comparison = compare_providers(
            observed_broker, three_tier_request(contract)
        )
        assert comparison.premium_over_winner(
            comparison.winner.provider_name
        ) == 0.0
        last = comparison.ranked[-1].provider_name
        assert comparison.premium_over_winner(last) == pytest.approx(comparison.spread)

    def test_unknown_provider_premium(self, observed_broker, contract):
        comparison = compare_providers(
            observed_broker, three_tier_request(contract)
        )
        with pytest.raises(BrokerError):
            comparison.premium_over_winner("nimbus")

    def test_describe_is_ranked_table(self, observed_broker, contract):
        text = compare_providers(
            observed_broker, three_tier_request(contract)
        ).describe()
        assert "1." in text and "2." in text and "3." in text


class TestSeedDeterminism:
    """Regression: one int seed pins the whole observation pipeline."""

    @staticmethod
    def _observe(seed):
        broker = BrokerService((metalcloud(),))
        events = broker.observe_provider("metalcloud", years=1.0, seed=seed)
        estimates = {
            kind: broker.knowledge_base.estimate("metalcloud", kind)
            for kind in ("vm", "volume", "gateway")
        }
        return broker, events, estimates

    def test_observe_provider_reproducible_from_int_seed(self):
        _, events_a, estimates_a = self._observe(1234)
        _, events_b, estimates_b = self._observe(1234)
        assert events_a == events_b
        for kind in estimates_a:
            assert estimates_a[kind].down_probability == (
                estimates_b[kind].down_probability
            )
            assert estimates_a[kind].failures_per_year == (
                estimates_b[kind].failures_per_year
            )

    def test_different_seeds_diverge(self):
        _, events_a, estimates_a = self._observe(1)
        _, events_b, estimates_b = self._observe(2)
        assert any(
            estimates_a[kind].down_probability
            != estimates_b[kind].down_probability
            for kind in estimates_a
        ) or events_a != events_b

    def test_broker_rng_normalizes_like_make_rng(self):
        from repro.broker.service import broker_rng
        from repro.rng import make_rng

        assert broker_rng(77).random() == make_rng(77).random()
        shared = make_rng(5)
        assert broker_rng(shared) is shared

    def test_observe_all_reproducible_end_to_end(self, contract):
        def run():
            broker = BrokerService(all_providers())
            broker.observe_all(years=1.0, seed=42)
            return recommend(broker, three_tier_request(contract)).describe()

        assert run() == run()

    def test_recommendation_reports_engine_stats(self, observed_broker, contract):
        report = recommend(observed_broker, three_tier_request(contract))
        for recommendation in report.recommendations:
            assert recommendation.engine_stats is not None
            assert recommendation.engine_stats.candidate_evaluations > 0
            assert recommendation.engine_stats.topology_evaluations == 0
