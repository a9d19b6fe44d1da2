"""The brokered service (§II-C): the paper's deployment vehicle.

A hybrid cloud broker sits above providers and customers, so it can

1. maintain a telemetry database of ``P_i``, ``f_i`` and ``t_i`` across
   IaaS components and clouds (:mod:`~repro.broker.telemetry`,
   :mod:`~repro.broker.knowledge_base`);
2. know each provider's rate-carded HA prices
   (:mod:`~repro.broker.ratecard`);
3. accept a base architecture + contract and return the
   uptime-optimized HA recommendation (:mod:`~repro.broker.service`),
   optionally comparing placements across providers
   (:mod:`~repro.broker.marketplace`);
4. serve many customers through the v2 request/response protocol —
   request/report envelopes (:mod:`~repro.broker.envelope`) and
   sessioned recommendations and async jobs over a cross-request
   engine cache (:mod:`~repro.broker.api`).
"""

from repro.broker.api import BrokerSession, EngineCache
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.knowledge_base import KnowledgeBase, ReliabilityEstimate
from repro.broker.marketplace import MarketplaceComparison, compare_providers
from repro.broker.persistence import load_telemetry, save_telemetry
from repro.broker.portfolio import CustomerOutcome, PortfolioReport, optimize_portfolio
from repro.broker.ratecard import registry_for_provider
from repro.broker.reports import render_option_table, render_summary
from repro.broker.request import ClusterRequirement, RecommendationRequest
from repro.broker.service import BrokerService, ProviderRecommendation, RecommendationReport
from repro.broker.telemetry import TelemetryStore

__all__ = [
    "BrokerService",
    "BrokerSession",
    "ClusterRequirement",
    "EngineCache",
    "RecommendEnvelope",
    "ReportEnvelope",
    "CustomerOutcome",
    "PortfolioReport",
    "optimize_portfolio",
    "KnowledgeBase",
    "MarketplaceComparison",
    "ProviderRecommendation",
    "RecommendationReport",
    "RecommendationRequest",
    "ReliabilityEstimate",
    "TelemetryStore",
    "compare_providers",
    "load_telemetry",
    "registry_for_provider",
    "save_telemetry",
    "render_option_table",
    "render_summary",
]
