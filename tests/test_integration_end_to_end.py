"""Integration: the full broker pipeline, cloud to recommendation.

These tests exercise long paths across subsystems: deploy on a simulated
cloud, inject faults, learn telemetry, recommend, validate the
recommendation with the Monte Carlo simulator.
"""

from __future__ import annotations

import pytest

from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.deployment import deploy_system
from repro.cloud.providers import all_providers, metalcloud
from repro.optimizer.brute_force import brute_force_optimize
from repro.simulation.validation import validate_against_model
from repro.sla.contract import Contract
from repro.workloads.case_study import case_study_problem


def recommend(broker: BrokerService, request):
    """Serve one request through a fresh broker session."""
    with broker.session() as session:
        return session.recommend(request)


class TestBrokerPipeline:
    def test_full_pipeline_reproduces_case_study(self):
        """Telemetry-driven recommendation on the SoftLayer-like provider
        lands on the same option as the calibrated ground-truth problem."""
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=8.0, seed=23)
        report = recommend(
            broker, three_tier_request(Contract.linear(98.0, 100.0))
        )
        brokered_best = report.for_provider("metalcloud").result.best
        ground_truth_best = brute_force_optimize(case_study_problem()).best
        assert brokered_best.choice_names == ground_truth_best.choice_names

    def test_recommended_system_passes_simulation(self):
        """The recommended architecture's analytic uptime is confirmed by
        the discrete-event simulator."""
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=8.0, seed=29)
        report = recommend(
            broker, three_tier_request(Contract.linear(98.0, 100.0))
        )
        system = report.for_provider("metalcloud").result.best.system
        validation = validate_against_model(system, replications=40, seed=31)
        assert validation.absolute_error < 0.01, validation.describe()

    def test_recommended_system_is_deployable(self):
        """The HA-enabled recommendation can actually be provisioned on
        the provider that recommended it."""
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=8.0, seed=37)
        report = recommend(
            broker, three_tier_request(Contract.linear(98.0, 100.0))
        )
        best = report.for_provider("metalcloud").result.best
        provider = broker.provider("metalcloud")
        deployment = deploy_system(best.system, provider)
        # RAID-1 storage means 2 volumes; base compute stays at 3 VMs.
        assert len(deployment.cluster_resources("storage")) == 2
        assert len(deployment.cluster_resources("compute")) == 3
        assert deployment.monthly_infra_cost > 0.0
        deployment.teardown()
        assert provider.monthly_spend() == 0.0

    def test_stricter_sla_buys_more_ha(self):
        """Tightening the SLA monotonically grows the recommended HA
        footprint across the marketplace winner."""
        broker = BrokerService(all_providers())
        broker.observe_all(years=5.0, seed=41)
        footprints = []
        for sla in (95.0, 98.0, 99.9):
            report = recommend(
                broker, three_tier_request(Contract.linear(sla, 400.0))
            )
            best = report.for_provider("metalcloud").result.best
            footprints.append(len(best.clustered_components))
        assert footprints == sorted(footprints)

    def test_higher_penalty_never_lowers_uptime(self):
        """Raising the penalty rate can only push the recommendation to
        equal or higher availability."""
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=6.0, seed=43)
        uptimes = []
        for rate in (10.0, 100.0, 1000.0, 10_000.0):
            report = recommend(
                broker, three_tier_request(Contract.linear(98.0, rate))
            )
            best = report.for_provider("metalcloud").result.best
            uptimes.append(best.tco.uptime_probability)
        assert uptimes == sorted(uptimes)


class TestTelemetryConvergence:
    def test_longer_observation_tightens_estimates(self):
        """E5 at test scale: mean estimate error shrinks with horizon.

        Averaged over seeds because a single short observation can get
        lucky (the paper's "skews smooth out over the long term").
        """
        provider_truth = metalcloud().reliability.triple("volume")[0]
        seeds = (47, 48, 49, 50)

        def mean_error(years: float) -> float:
            errors = []
            for seed in seeds:
                broker = BrokerService((metalcloud(),))
                broker.observe_provider("metalcloud", years=years, seed=seed)
                estimate = broker.knowledge_base.estimate("metalcloud", "volume")
                errors.append(abs(estimate.down_probability - provider_truth))
            return sum(errors) / len(errors)

        assert mean_error(30.0) < mean_error(1.0)

    def test_estimates_distinguish_providers(self):
        broker = BrokerService(all_providers())
        broker.observe_all(years=10.0, seed=53)
        kb = broker.knowledge_base
        assert (
            kb.estimate("stratus", "vm").down_probability
            < kb.estimate("metalcloud", "vm").down_probability
            < kb.estimate("cumulus", "vm").down_probability
        )
