"""E5b — when is the broker's database good enough to commit?

§IV worries about skew in the broker's estimates.  Combining the
telemetry standard errors with delta-method propagation answers the
operational question: after N observed years, how confident is the
broker that its recommended option really beats the runner-up?
"""

from __future__ import annotations

import pytest

from repro.availability.uncertainty import (
    propagate_uptime_uncertainty,
    recommendation_confidence,
    tco_band,
)
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cli.formatting import render_table
from repro.cloud.providers import metalcloud
from repro.sla.contract import Contract

_CONTRACT = Contract.linear(98.0, 100.0)


def _confidence_after(years: float, seed: int) -> tuple[float, str]:
    """(confidence best beats runner-up, best label) after observation."""
    broker = BrokerService((metalcloud(),))
    broker.observe_provider("metalcloud", years=years, seed=seed)
    with broker.session() as session:
        report = session.recommend(three_tier_request(_CONTRACT))
    result = report.for_provider("metalcloud").result

    kb = broker.knowledge_base
    uncertainties = {
        "compute": kb.estimate("metalcloud", "vm").input_uncertainty(),
        "storage": kb.estimate("metalcloud", "volume").input_uncertainty(),
        "network": kb.estimate("metalcloud", "gateway").input_uncertainty(),
    }

    ranked = sorted(result.options, key=lambda option: option.tco.total)
    best, runner_up = ranked[0], ranked[1]

    def sigma(option):
        uncertainty = propagate_uptime_uncertainty(option.system, uncertainties)
        band = tco_band(option.tco.ha_cost, _CONTRACT, uncertainty)
        # Treat the 95% band as ±2 sigma.
        return band.spread / 4.0

    confidence = recommendation_confidence(
        best.tco.total, sigma(best), runner_up.tco.total, sigma(runner_up)
    )
    return confidence, best.label


def test_recommendation_confidence_grows_with_telemetry(benchmark, emit):
    horizons = (0.5, 2.0, 8.0, 32.0)
    seeds = (3, 5, 7)

    def sweep():
        outcome = {}
        for years in horizons:
            values = [_confidence_after(years, seed)[0] for seed in seeds]
            outcome[years] = sum(values) / len(values)
        return outcome

    mean_confidence = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (f"{years:g} yr", f"{mean_confidence[years] * 100:.1f}%")
        for years in horizons
    ]
    emit(
        "[E5b] mean confidence that the recommended option beats the "
        "runner-up (3 seeds):\n"
        + render_table(("observed horizon", "Pr[best < runner-up]"), rows)
    )

    # Confidence is always better than a coin flip and high when mature.
    for years in horizons:
        assert mean_confidence[years] >= 0.5
    assert mean_confidence[32.0] >= 0.9
    assert mean_confidence[32.0] >= mean_confidence[0.5]
