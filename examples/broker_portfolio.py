#!/usr/bin/env python
"""A broker's book of business: savings at portfolio scale.

The paper's pitch is that ad-hoc HA wastes money across *every* customer
a broker serves.  This example runs five customers with different
contracts through the brokered optimization (placement included), adds
the uncertainty view — how confident is the broker in each
recommendation given its current telemetry? — and totals the savings.

Run: ``python examples/broker_portfolio.py``
"""

from repro.availability.uncertainty import (
    propagate_uptime_uncertainty,
    recommendation_confidence,
    tco_band,
)
from repro.broker.portfolio import optimize_portfolio
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.sla.contract import Contract

broker = BrokerService(all_providers())
print("Accumulating 6 synthetic years of telemetry per provider...")
broker.observe_all(years=6.0, seed=424242)

customers = [
    three_tier_request(Contract.linear(98.0, 100.0), system_name="retailer"),
    three_tier_request(Contract.linear(99.5, 500.0), system_name="bank", compute_nodes=4),
    three_tier_request(Contract.linear(95.0, 25.0), system_name="batch-shop"),
    three_tier_request(Contract.linear(99.0, 250.0), system_name="saas-vendor"),
    three_tier_request(Contract.linear(97.0, 60.0), system_name="intranet"),
]

report = optimize_portfolio(broker, customers)
print()
print(report.describe())

# Confidence view for the first customer: does the broker know enough?
request = customers[0]
with broker.session() as session:
    placement = session.recommend(request).best
result = placement.result
kb = broker.knowledge_base
uncertainties = {
    requirement.name: kb.estimate(
        placement.provider_name, requirement.component_kind
    ).input_uncertainty()
    for requirement in request.clusters
}
ranked = sorted(result.options, key=lambda option: option.tco.total)
best, runner_up = ranked[0], ranked[1]


def tco_sigma(option):
    uncertainty = propagate_uptime_uncertainty(option.system, uncertainties)
    return tco_band(option.tco.ha_cost, request.contract, uncertainty).spread / 4.0


confidence = recommendation_confidence(
    best.tco.total, tco_sigma(best), runner_up.tco.total, tco_sigma(runner_up)
)
print(
    f"\nConfidence check ({request.system_name!r} on "
    f"{placement.provider_name}): Pr[{best.label} beats "
    f"{runner_up.label}] = {confidence * 100:.1f}% given the telemetry "
    "collected so far."
)
print(
    "A broker below its confidence bar keeps observing before "
    "committing — the operational answer to the paper's §IV concern "
    "about estimate skew."
)
