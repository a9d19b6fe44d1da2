"""The wire fold: distilled searches give the full table's recommendations.

A wire recommend (``BrokerSession.recommend_envelope``) folds each
candidate's cached payload and assembles only the two options its
report reads, while ``session.recommend()`` keeps the full option
table.  These tests pin that both give the same report bytes,
``engine_stats`` included, in every cache state (cold engines, engines
another strategy partly warmed, memo hits), that a cold wire serve
assembles at most two options per provider, and that the distilled
tie-breaks equal the full table's on problems built to tie.
"""

from __future__ import annotations

import collections
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.request import (
    ClusterRequirement,
    RecommendationRequest,
    three_tier_request,
)
from repro.broker.service import BrokerService
from repro.catalog.hypervisor import HypervisorHA
from repro.catalog.os_cluster import OSCluster
from repro.catalog.registry import TechnologyRegistry
from repro.cloud.providers import all_providers
from repro.cost.rates import LaborRate
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import EvaluationEngine
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.space import OptimizationProblem
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    TieredPenalty,
)
from repro.sla.sla import UptimeSLA
from repro.topology.builder import TopologyBuilder
from repro.topology.cluster import Layer
from repro.topology.node import NodeSpec

#: Penalty clauses of the served five-cluster contracts, by name.
PENALTIES = {
    "linear": LinearPenalty(420.0),
    "tiered": TieredPenalty(((2.0, 150.0), (float("inf"), 600.0))),
    "capped": CappedPenalty(LinearPenalty(420.0), monthly_cap=900.0),
}

#: (strategy, penalty) of the served five-cluster contracts.
VARIANTS = (
    ("pruned", "linear"),
    ("pruned", "tiered"),
    ("branch-and-bound", "linear"),
    ("brute-force", "linear"),
    ("brute-force", "capped"),
)

STRATEGIES = {
    "pruned": pruned_optimize,
    "branch-and-bound": branch_and_bound_optimize,
    "brute-force": brute_force_optimize,
}


@pytest.fixture(scope="module")
def broker() -> BrokerService:
    served = BrokerService(all_providers())
    served.observe_all(years=2.0, seed=31)
    return served


def five_tier(strategy: str, penalty: str = "linear"):
    """A five-cluster extended-catalog request: 768 candidates."""
    return RecommendationRequest(
        system_name="five-tier",
        clusters=(
            ClusterRequirement("web", Layer.COMPUTE, 2),
            ClusterRequirement("app", Layer.COMPUTE, 3),
            ClusterRequirement("db", Layer.STORAGE, 1),
            ClusterRequirement("blob", Layer.STORAGE, 1),
            ClusterRequirement("edge", Layer.NETWORK, 1),
        ),
        contract=Contract(sla=UptimeSLA(99.5), penalty=PENALTIES[penalty]),
        providers=("metalcloud", "stratus"),
        extended_catalog=True,
        strategy=strategy,
    )


def wire_bytes(session, request, forget_aliases: bool = False) -> str:
    if forget_aliases:
        session.engine_cache._aliases.clear()
    envelope = RecommendEnvelope(request, request_id="fold")
    return session.recommend_envelope(envelope).to_json()


def table_bytes(session, request) -> str:
    return ReportEnvelope.from_report(
        session.recommend(request), request_id="fold"
    ).to_json()


def assert_same_bytes(broker, requests, forget_aliases=False):
    """Serve ``requests`` on the wire and as tables, in twin sessions.

    Returns the wire session's engine-cache stats.
    """
    with broker.session() as wire, broker.session() as table:
        for request in requests:
            assert wire_bytes(wire, request, forget_aliases) == table_bytes(
                table, request
            )
    return wire.engine_cache.stats


class TestFoldEqualsFullTable:
    @pytest.mark.parametrize("strategy,penalty", VARIANTS)
    def test_cold_engine(self, broker, strategy, penalty):
        assert_same_bytes(broker, [five_tier(strategy, penalty)])

    @pytest.mark.parametrize("strategy,penalty", VARIANTS)
    def test_engine_partly_warmed_by_another_strategy(
        self, broker, strategy, penalty
    ):
        # The pruned search caches a subset of the space, so a later
        # sweep mixes result-cache hits with misses.
        assert_same_bytes(
            broker,
            [five_tier("pruned", penalty), five_tier(strategy, penalty)],
        )

    @pytest.mark.parametrize("forget_aliases", [False, True])
    @pytest.mark.parametrize("strategy,penalty", VARIANTS)
    def test_memo_hit(self, broker, strategy, penalty, forget_aliases):
        # Third wire serve: a memo hit, by the warm alias or (aliases
        # forgotten) after key derivation; the third table serve is a
        # search answered by the result cache.
        stats = assert_same_bytes(
            broker, [five_tier(strategy, penalty)] * 3, forget_aliases
        )
        assert stats.replays == 2  # one memo hit per provider

    def test_three_tier_over_every_provider(self, broker):
        requests = [
            three_tier_request(Contract.linear(98.0, 100.0), strategy=strategy)
            for strategy in STRATEGIES
        ]
        assert_same_bytes(broker, requests + requests)


class TestOptionsAssembledPerWireRequest:
    @pytest.mark.parametrize("strategy,penalty", VARIANTS)
    def test_cold_wire_serve_assembles_two_options_per_provider(
        self, broker, monkeypatch, strategy, penalty
    ):
        built = collections.Counter()
        build = EvaluationEngine._build_option

        def counting_build(engine, option_id, indices, payload):
            built[id(engine)] += 1
            return build(engine, option_id, indices, payload)

        monkeypatch.setattr(EvaluationEngine, "_build_option", counting_build)
        request = five_tier(strategy, penalty)
        with broker.session() as session:
            report = session.recommend_envelope(RecommendEnvelope(request))
            assert len(built) == len(report.providers) == 2
            assert all(count <= 2 for count in built.values())
            for section in report.providers:
                assert section.engine_stats["candidate_evaluations"] > 2
            built.clear()
            full = session.recommend(request)
        for recommendation in full.recommendations:
            result = recommendation.result
            assert len(result.options) == result.evaluations
        assert sum(built.values()) == sum(
            recommendation.result.evaluations
            for recommendation in full.recommendations
        )


class TestWireJobs:
    """Jobs submitted with ``wire=True``, as the server's job and batch
    routes submit them, serve like ``recommend_envelope``."""

    @pytest.mark.parametrize("strategy,penalty", VARIANTS)
    def test_wire_job_bytes_equal_table_job_bytes(
        self, broker, monkeypatch, strategy, penalty
    ):
        built = collections.Counter()
        build = EvaluationEngine._build_option

        def counting_build(engine, option_id, indices, payload):
            built[id(engine)] += 1
            return build(engine, option_id, indices, payload)

        monkeypatch.setattr(EvaluationEngine, "_build_option", counting_build)
        envelope = RecommendEnvelope(five_tier(strategy, penalty), request_id="j")
        with broker.session() as wire, broker.session() as table:
            wire_report = wire.result_envelope(wire.submit(envelope, wire=True))
            assert len(built) == 2
            assert all(count <= 2 for count in built.values())
            table_report = table.result_envelope(table.submit(envelope))
        assert wire_report.to_json() == table_report.to_json()

    def test_repeated_wire_jobs_answer_from_the_memo(self, broker):
        envelope = RecommendEnvelope(five_tier("pruned"))
        with broker.session() as session:
            reports = [
                session.result_envelope(session.submit(envelope, wire=True))
                for _ in range(3)
            ]
            # First: first service.  Second: a pure replay that fills
            # the memo.  Third: one memo hit per provider.
            assert session.engine_cache.stats.replays == 2
            for _ in range(3):
                session.result(session.submit(envelope))
            assert session.engine_cache.stats.replays == 2
        # The memo hit repeats the replay that filled it, engine_stats
        # included.
        assert reports[2].providers == reports[1].providers

    def test_result_refuses_a_wire_job(self, broker):
        from repro.errors import BrokerError

        request = three_tier_request(Contract.linear(98.0, 100.0))
        with broker.session() as session:
            job_id = session.submit(request, wire=True)
            with pytest.raises(BrokerError, match="result_envelope"):
                session.result(job_id)
            assert session.result_envelope(job_id).request_id == job_id

    @pytest.mark.parametrize("route", ["jobs", "batch"])
    def test_server_routes_answer_repeats_from_the_memo(self, broker, route):
        from repro.server import ServerClient, start_in_thread

        request = three_tier_request(Contract.linear(98.0, 100.0))
        with start_in_thread(broker, workers=0, merge_interval=None) as handle:
            client = ServerClient.from_url(handle.url)
            try:
                for _ in range(3):
                    if route == "jobs":
                        client.result(client.submit(request), poll_interval=0.01)
                    else:
                        client.batch([request])
            finally:
                client.close()
            stats = handle.server.session.engine_cache.stats
        assert stats.replays == 3  # the third serve, one per provider


# -- forced ties -------------------------------------------------------------

NODE = NodeSpec("vm", 0.01, 6.0, monthly_cost=100.0)


def tie_problem(
    clusters: int, costs: list[float], hours: list[float], target: float | None
) -> OptimizationProblem:
    """Identical compute clusters priced from a tiny set of amounts.

    HA on any one cluster costs what it costs on any other and gives
    the same uptime, so many options share their total and their
    penalty.  Without a penalty clause (``target=None``) or below a lax
    target every option has a zero penalty.  At a 97% target no-HA
    slips (about 96% uptime) while HA on any one cluster meets it, so
    ``min_penalty`` breaks a tie between equally priced options on id.
    """
    builder = TopologyBuilder("ties")
    for index in range(clusters):
        builder.add_cluster(
            name=f"c{index}", layer=Layer.COMPUTE, node=NODE, nodes=2
        )
    registry = TechnologyRegistry()
    registry.register(HypervisorHA(
        standby_nodes=1, failover_minutes=5.0,
        monthly_license_per_node=costs[0], monthly_labor_hours=hours[0],
    ))
    registry.register(OSCluster(
        standby_nodes=1, failover_minutes=5.0,
        monthly_support_per_node=costs[1], monthly_labor_hours=hours[1],
    ))
    contract = Contract(
        sla=UptimeSLA(99.0 if target is None else target),
        penalty=NoPenalty() if target is None else LinearPenalty(50.0),
    )
    return OptimizationProblem(
        base_system=builder.build(),
        registry=registry,
        contract=contract,
        labor_rate=LaborRate(30.0),
    )


def signature(option) -> bytes:
    return pickle.dumps(
        (option.option_id, option.choice_names, option.tco, option.meets_sla)
    )


class TestDistilledTieBreaks:
    @given(
        clusters=st.integers(min_value=2, max_value=3),
        costs=st.lists(st.sampled_from([0.0, 10.0]), min_size=2, max_size=2),
        hours=st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=2),
        target=st.sampled_from([None, 50.0, 97.0, 99.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_matches_full_table(self, clusters, costs, hours, target):
        problem = tie_problem(clusters, costs, hours, target)
        for name, optimize in STRATEGIES.items():
            full = optimize(problem, engine=EvaluationEngine(problem))
            for cache in (True, False):
                engine = EvaluationEngine(problem, cache=cache)
                if cache:
                    # Part of the space cached: hits mixed with misses.
                    pruned_optimize(problem, engine=engine)
                distilled = optimize(problem, engine=engine, keep_options=False)
                # Exactly the two recommendations are kept, so a
                # tie-break the result's properties would mask still
                # shows.
                assert [o.option_id for o in distilled.options] == sorted(
                    {full.best.option_id, full.min_penalty_option.option_id}
                )
                assert distilled.evaluations == full.evaluations, name
                assert distilled.pruned == full.pruned
                assert signature(distilled.best) == signature(full.best)
                assert signature(distilled.min_penalty_option) == signature(
                    full.min_penalty_option
                )
