"""Golden wire-report digests: the same bytes on every interpreter.

A fixed corpus is served and each group's report bytes are hashed
(SHA-256) against ``tests/data/wire_golden.json``:

- the paper's case study, optimized by every strategy, as wire
  provider reports;
- eight three-tier contracts like the ``warm-hits`` benchmark's, each
  served three times (first service, pure replay, memo hit);
- thirty never-seen five-cluster, extended-catalog contracts like the
  ``cold-search`` benchmark's, for each of ``pruned``,
  ``branch-and-bound``, and brute force sent with the retired request
  field ``"backend"`` set to ``"serial"`` and to ``"vector"``.

Every search runs the one scalar kernel and the backend field changes
nothing, so the two brute-force groups share their digests.

Every float and ``engine_stats`` counter reaches the digest, so a change
of summation order, tie-break or evaluation accounting shows here on
every interpreter the suite runs on.  A change that means to alter the
bytes regenerates the file with::

    PYTHONPATH=src python tests/test_wire_golden.py > tests/data/wire_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.broker.envelope import ProviderReport, RecommendEnvelope
from repro.broker.request import (
    ClusterRequirement,
    RecommendationRequest,
    three_tier_request,
)
from repro.broker.service import BrokerService, _STRATEGY_FUNCTIONS
from repro.cloud.providers import all_providers
from repro.optimizer.engine import EvaluationEngine
from repro.sla.contract import Contract
from repro.topology.cluster import Layer
from repro.workloads.case_study import case_study_problem

GOLDEN = Path(__file__).parent / "data" / "wire_golden.json"

#: (strategy, request backend field) of every served group.
VARIANTS = (
    ("pruned", "serial"),
    ("branch-and-bound", "serial"),
    ("brute-force", "serial"),
    ("brute-force", "vector"),
)

PROVIDERS = ("cumulus", "metalcloud", "stratus")

#: Telemetry history and seed of the served broker.
OBSERVE_YEARS = 3.0
SEED = 1

COLD_REQUESTS = 30
WARM_CONTRACTS = 8
WARM_SERVES = 3


def cold_requests(strategy: str, backend: str) -> list[RecommendationRequest]:
    """Five-cluster extended-catalog contracts, one provider each."""
    rng = random.Random(f"{SEED}:cold")
    requests = []
    for index in range(COLD_REQUESTS):
        contract = Contract.linear(
            round(rng.uniform(97.5, 99.95), 4),
            round(rng.uniform(100.0, 900.0), 2) + index * 1e-3,
        )
        requests.append(RecommendationRequest(
            system_name="five-tier",
            clusters=(
                ClusterRequirement("web", Layer.COMPUTE, 2),
                ClusterRequirement("app", Layer.COMPUTE, 3),
                ClusterRequirement("db", Layer.STORAGE, 1),
                ClusterRequirement("blob", Layer.STORAGE, 1),
                ClusterRequirement("edge", Layer.NETWORK, 1),
            ),
            contract=contract,
            providers=(PROVIDERS[index % len(PROVIDERS)],),
            extended_catalog=True,
            strategy=strategy,
            backend=backend,
        ))
    return requests


def warm_requests() -> list[RecommendationRequest]:
    """Eight quoted three-tier contracts over every provider."""
    rng = random.Random(f"{SEED}:warm")
    return [
        three_tier_request(Contract.linear(
            round(rng.uniform(97.0, 99.9), 3),
            round(rng.uniform(50.0, 500.0), 2),
        ))
        for _ in range(WARM_CONTRACTS)
    ]


def _digest(documents) -> str:
    sha = hashlib.sha256()
    for document in documents:
        sha.update(document.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _served(broker: BrokerService, requests) -> str:
    with broker.session() as session:
        return _digest(
            session.recommend_envelope(
                RecommendEnvelope(request, request_id=f"golden-{number}")
            ).to_json()
            for number, request in enumerate(requests)
        )


def case_study_digest(strategy: str) -> str:
    problem = case_study_problem()
    engine = EvaluationEngine(problem)
    result = _STRATEGY_FUNCTIONS[strategy](problem, engine=engine)
    report = ProviderReport.from_result(
        "case-study", result, engine_stats=engine.stats.to_dict()
    )
    return _digest([json.dumps(report.to_dict(), sort_keys=True)])


@pytest.fixture(scope="module")
def broker() -> BrokerService:
    served = BrokerService(all_providers())
    served.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return served


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def _group(strategy: str, backend: str) -> str:
    return f"{strategy}/{backend}"


@pytest.mark.parametrize("strategy,backend", VARIANTS)
def test_case_study_reports(golden, strategy, backend):
    assert case_study_digest(strategy) == golden["case-study"][
        _group(strategy, backend)
    ]


@pytest.mark.parametrize("corpus", ["case-study", "cold-search"])
def test_backend_field_groups_share_a_digest(golden, corpus):
    groups = golden[corpus]
    assert groups["brute-force/serial"] == groups["brute-force/vector"]


def test_warm_contract_reports(broker, golden):
    requests = [r for r in warm_requests() for _ in range(WARM_SERVES)]
    assert _served(broker, requests) == golden["warm-hits"]


@pytest.mark.parametrize("strategy,backend", VARIANTS)
def test_cold_contract_reports(broker, golden, strategy, backend):
    assert _served(broker, cold_requests(strategy, backend)) == golden[
        "cold-search"
    ][_group(strategy, backend)]


def corpus_digests() -> dict:
    """Every group's digest, in the committed file's layout."""
    served = BrokerService(all_providers())
    served.observe_all(years=OBSERVE_YEARS, seed=SEED)
    return {
        "case-study": {
            _group(strategy, backend): case_study_digest(strategy)
            for strategy, backend in VARIANTS
        },
        "warm-hits": _served(
            served, [r for r in warm_requests() for _ in range(WARM_SERVES)]
        ),
        "cold-search": {
            _group(*variant): _served(served, cold_requests(*variant))
            for variant in VARIANTS
        },
    }


if __name__ == "__main__":
    print(json.dumps(corpus_digests(), indent=2, sort_keys=True))
