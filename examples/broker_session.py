#!/usr/bin/env python
"""Broker API v2: sessions, envelopes and async jobs.

The paper's broker (Figure 2) is a service with many customers, not a
function call.  This example drives the v2 protocol end to end:

1. opens a :class:`~repro.broker.api.BrokerSession` over an observed
   broker — the session owns the cross-request engine cache;
2. serves the same request cold and warm, showing the cache at work;
3. submits eight customer requests as jobs on the worker pool and
   collects their reports with ``result``;
4. serves one exhaustive sweep and reads its wire summary;
5. round-trips a request/report pair through the JSON wire format.

Run: ``python examples/broker_session.py``
"""

import time

from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.sla.contract import Contract

# 1. An observed broker and a session over it.
broker = BrokerService(all_providers())
print("Observing providers (3 synthetic years of fleet telemetry each)...")
events = broker.observe_all(years=3.0, seed=2017)
print(f"  ingested {events:,} events\n")

request = three_tier_request(Contract.linear(98.0, 100.0))

with broker.session(max_workers=4) as session:
    # 2. Cold vs warm: the second call reuses every cached engine.
    start = time.perf_counter()
    cold = session.recommend(request)
    cold_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    warm = session.recommend(request)
    warm_ms = (time.perf_counter() - start) * 1e3
    assert warm.describe() == cold.describe()
    print(cold.describe())
    print(
        f"\ncold request {cold_ms:.2f} ms -> warm request {warm_ms:.2f} ms "
        f"({session.engine_cache.stats.describe()})\n"
    )

    # 3. A batch of customers with overlapping contracts.
    requests = [
        three_tier_request(Contract.linear(sla, penalty))
        for sla, penalty in [
            (98.0, 100.0), (98.0, 250.0), (99.0, 100.0), (98.0, 100.0),
            (99.0, 250.0), (98.0, 500.0), (98.0, 100.0), (99.5, 100.0),
        ]
    ]
    job_ids = [session.submit(batch_request) for batch_request in requests]
    reports = [session.result(job_id) for job_id in job_ids]
    print(f"Served {len(reports)} jobs over the worker pool:")
    for batch_request, report in zip(requests, reports):
        best = report.best
        print(
            f"  SLA {batch_request.contract.sla.target_percent:5.1f}% -> "
            f"{best.provider_name:<10} {best.result.best.label}"
        )
    print(f"  {session.engine_cache.stats.describe()}\n")

    # 4. An exhaustive sweep: the wire report keeps two option rows.
    sweep = three_tier_request(
        Contract.linear(98.0, 100.0),
        providers=("metalcloud",),
        strategy="brute-force",
    )
    (section,) = ReportEnvelope.from_report(session.recommend(sweep)).providers
    print(
        f"Exhaustive sweep on metalcloud: {section.evaluations}/"
        f"{section.space_size} candidates evaluated, best "
        f"{section.best.label} (${section.monthly_total:,.2f}/mo)"
    )

# 5. The wire format: what a remote customer would actually send.
envelope = RecommendEnvelope(request, request_id="customer-42")
with broker.session() as wire_session:
    report_envelope = wire_session.recommend_envelope(envelope)
line = report_envelope.to_json()
restored = ReportEnvelope.from_json(line)
print(
    f"\nWire round-trip: {len(line)} bytes of JSON; "
    f"place on {restored.best.provider_name} as {restored.best.best.label}"
)
