"""Broker API v2: envelopes, sessions, jobs, engine cache."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.broker.api import (
    BrokerSession,
    EngineCache,
    EngineKey,
    _rate_card_key,
)
from repro.broker.envelope import (
    ErrorEnvelope,
    OptionSummary,
    ProviderReport,
    RecommendEnvelope,
    ReportEnvelope,
    contract_from_dict,
    contract_to_dict,
    penalty_from_dict,
    penalty_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.provider import CloudProvider
from repro.cloud.providers import all_providers, metalcloud
from repro.errors import (
    BrokerError,
    InsufficientTelemetryError,
    ValidationError,
)
from repro.optimizer.engine import EvaluationEngine
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    ServiceCreditPenalty,
    TieredPenalty,
)
from repro.workloads.case_study import case_study_problem


@pytest.fixture(scope="module")
def observed_broker() -> BrokerService:
    """A broker that has watched all three providers for 3 synthetic years."""
    broker = BrokerService(all_providers())
    broker.observe_all(years=3.0, seed=23)
    return broker


@pytest.fixture
def contract() -> Contract:
    return Contract.linear(98.0, 100.0)


@pytest.fixture
def session(observed_broker) -> BrokerSession:
    with observed_broker.session() as active:
        yield active


class TestEnvelopeRoundTrip:
    @pytest.mark.parametrize(
        "clause",
        [
            NoPenalty(),
            LinearPenalty(250.0),
            TieredPenalty(((2.0, 100.0), (8.0, 250.0))),
            CappedPenalty(inner=LinearPenalty(100.0), monthly_cap=4000.0),
            ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25))),
        ],
    )
    def test_penalty_clauses_round_trip(self, clause):
        assert penalty_from_dict(penalty_to_dict(clause)) == clause

    def test_penalty_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="penalty kind"):
            penalty_from_dict({"kind": "exotic"})

    def test_contract_round_trip(self, contract):
        assert contract_from_dict(contract_to_dict(contract)) == contract

    def test_request_round_trip(self, contract):
        request = three_tier_request(
            contract,
            compute_nodes=4,
            providers=("metalcloud", "stratus"),
            strategy="brute-force",
            backend="vector",
            extended_catalog=True,
            metadata={"customer": "acme"},
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_envelope_json_round_trip(self, contract):
        envelope = RecommendEnvelope(
            request=three_tier_request(contract), request_id="req-7"
        )
        assert RecommendEnvelope.from_json(envelope.to_json()) == envelope

    def test_envelope_embeds_version_and_kind(self, contract):
        payload = RecommendEnvelope(three_tier_request(contract)).to_dict()
        assert payload["schema_version"] == 2
        assert payload["kind"] == "recommend-request"

    def test_envelope_rejects_future_version(self, contract):
        payload = RecommendEnvelope(three_tier_request(contract)).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            RecommendEnvelope.from_dict(payload)

    def test_envelope_rejects_unknown_keys(self, contract):
        payload = RecommendEnvelope(three_tier_request(contract)).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            RecommendEnvelope.from_dict(payload)

    def test_request_validation_still_applies(self, contract):
        payload = RecommendEnvelope(three_tier_request(contract)).to_dict()
        payload["request"]["strategy"] = "quantum"
        with pytest.raises(ValidationError, match="strategy"):
            RecommendEnvelope.from_dict(payload)

    def test_report_envelope_round_trip(self, session, contract):
        report = session.recommend(three_tier_request(contract))
        envelope = ReportEnvelope.from_report(report, request_id="req-1")
        restored = ReportEnvelope.from_json(envelope.to_json())
        assert restored == envelope
        assert restored.best.provider_name == report.best.provider_name
        assert restored.best.monthly_total == report.best.monthly_total

    def test_report_envelope_unknown_provider(self, session, contract):
        report = session.recommend(three_tier_request(contract))
        envelope = ReportEnvelope.from_report(report)
        with pytest.raises(BrokerError, match="unknown provider"):
            envelope.for_provider("nimbus")

    def test_report_envelope_is_json_safe(self, session, contract):
        report = session.recommend(three_tier_request(contract))
        payload = ReportEnvelope.from_report(report).to_dict()
        json.dumps(payload)  # must not raise


class TestRequestParsing:
    """``request_from_dict`` answers a malformed field with a
    ValidationError naming it: never a KeyError/TypeError escaping to
    the caller, never a silent coercion."""

    @staticmethod
    def _payload(contract) -> dict:
        return request_to_dict(three_tier_request(contract))

    @pytest.mark.parametrize(
        "value", ["abc", None, 2.9, True], ids=["str", "null", "float", "bool"]
    )
    def test_non_integer_nodes_rejected(self, contract, value):
        payload = self._payload(contract)
        payload["clusters"][0]["nodes"] = value
        with pytest.raises(ValidationError, match="nodes"):
            request_from_dict(payload)

    @pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "null"])
    def test_non_boolean_extended_catalog_rejected(self, contract, value):
        payload = self._payload(contract)
        payload["extended_catalog"] = value
        with pytest.raises(ValidationError, match="extended_catalog"):
            request_from_dict(payload)

    def test_missing_field_is_named(self, contract):
        payload = self._payload(contract)
        del payload["clusters"][0]["name"]
        with pytest.raises(ValidationError, match="clusters: missing field 'name'"):
            request_from_dict(payload)

    def test_inner_validation_error_passes_through_unchanged(self, contract):
        payload = RecommendEnvelope(three_tier_request(contract)).to_dict()
        payload["request"]["clusters"][0]["layer"] = "quantum"
        with pytest.raises(ValidationError) as excinfo:
            RecommendEnvelope.from_dict(payload)
        # Neither the "clusters" nor the "request" wrapper re-labels it.
        assert str(excinfo.value).startswith("unknown layer 'quantum'")

    def test_retired_engine_field_rejected(self, contract):
        payload = self._payload(contract)
        payload["engine"] = "direct"
        with pytest.raises(ValidationError, match="engine"):
            request_from_dict(payload)
        with pytest.raises(TypeError, match="engine"):
            three_tier_request(contract, engine="direct")


class TestEngineCacheUnit:
    @staticmethod
    def _key(tag: str) -> EngineKey:
        return EngineKey(
            provider="p", base_system=tag, contract="c", rate_card="r",
            variant=(),
        )

    @staticmethod
    def _engine() -> EvaluationEngine:
        return EvaluationEngine(case_study_problem())

    def test_rejects_zero_capacity(self):
        with pytest.raises(BrokerError, match="capacity"):
            EngineCache(capacity=0)

    def test_hit_and_miss_accounting(self):
        cache = EngineCache(capacity=4)
        key = self._key("a")
        first = cache.entry(key, self._engine)
        again = cache.entry(key, self._engine)
        assert again.engine is first.engine
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.requests == 2
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = EngineCache(capacity=2)
        a, b, c = self._key("a"), self._key("b"), self._key("c")
        cache.entry(a, self._engine)
        cache.entry(b, self._engine)
        cache.entry(a, self._engine)  # refresh a: b is now least recent
        cache.entry(c, self._engine)  # evicts b
        assert cache.stats.evictions == 1
        assert b not in cache
        assert cache.keys() == (a, c)
        # b was evicted, so asking for it again is a rebuild (miss).
        cache.entry(b, self._engine)
        assert cache.stats.misses == 4

    def test_clear_drops_engines_keeps_stats(self):
        cache = EngineCache(capacity=2)
        cache.entry(self._key("a"), self._engine)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_clear_leaves_held_engines_serving(self):
        # Engines hold no OS resources: dropping them closes nothing,
        # and a holder has no finish step to run afterwards.
        cache = EngineCache(capacity=2)
        held = cache.entry(self._key("a"), self._engine)
        cache.clear()
        assert not hasattr(cache, "finish")
        options = list(held.engine.evaluate_all())
        assert len(options) == held.engine.space.size


class TestEvictionLifecycle:
    """LRU eviction only drops map entries; holders keep their engines."""

    @staticmethod
    def _key(tag: str) -> EngineKey:
        return EngineKey(
            provider="p", base_system=tag, contract="c", rate_card="r",
            variant=(),
        )

    @staticmethod
    def _build() -> EvaluationEngine:
        return EvaluationEngine(case_study_problem())

    def test_eviction_leaves_an_in_flight_holder_serving(self):
        cache = EngineCache(capacity=1)
        entry_a = cache.entry(self._key("a"), self._build)
        expected = len(list(entry_a.engine.evaluate_all()))
        # Simulate an in-flight request: the entry's lock is held while
        # another request's miss evicts this entry.
        with entry_a.lock:
            cache.entry(self._key("b"), self._build)
            assert self._key("a") not in cache
            assert cache.stats.evictions == 1
            # The holder's engine still serves, from its warm cache.
            assert len(list(entry_a.engine.evaluate_all())) == expected

    def test_session_eviction_between_requests(self, observed_broker):
        with observed_broker.session(cache_capacity=1) as session:
            first = three_tier_request(
                Contract.linear(98.0, 100.0),
                strategy="brute-force",
                providers=("metalcloud",),
            )
            second = three_tier_request(
                Contract.linear(99.0, 100.0),
                strategy="brute-force",
                providers=("metalcloud",),
            )
            session.recommend(first)
            assert len(session.engine_cache.engines()) == 1
            session.recommend(second)
            stats = session.engine_cache.stats
            assert stats.evictions == 1
            assert len(session.engine_cache.engines()) == 1
            # The surviving engine still serves warm repeats.
            repeat = session.recommend(second)
            assert repeat.recommendations

    def test_stats_serialization(self):
        stats = EngineCache(capacity=2).stats
        assert stats.to_dict() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "replays": 0,
        }
        assert "hit rate" in stats.describe()
        assert "0 replays" in stats.describe()


class TestEngineKeying:
    def test_contract_changes_key(self, observed_broker, contract):
        cache = EngineCache()
        with observed_broker.session(engine_cache=cache) as session:
            session.recommend(three_tier_request(contract))
            assert len(cache) == 3  # one engine per provider
            session.recommend(
                three_tier_request(Contract.linear(99.0, 100.0))
            )
            assert len(cache) == 6
            assert cache.stats.hits == 0

    def test_rate_card_changes_key(self, contract):
        base = metalcloud()
        pricier_card = dataclasses.replace(
            base.rate_card,
            ha_addons={**base.rate_card.ha_addons, "raid-controller": 99.0},
        )
        pricier = CloudProvider(
            name=base.name,
            regions=base.regions,
            rate_card=pricier_card,
            reliability=base.reliability,
        )
        shared = EngineCache()
        reports = {}
        for provider in (base, pricier):
            broker = BrokerService((provider,))
            broker.observe_provider("metalcloud", years=2.0, seed=5)
            with broker.session(engine_cache=shared) as session:
                reports[id(provider)] = session.recommend(
                    three_tier_request(contract)
                )
        # Same provider name, same telemetry, different rate card: the
        # fingerprints must diverge, so both requests were cache misses.
        assert shared.stats.misses == 2
        assert shared.stats.hits == 0
        assert len(shared) == 2

    def test_identical_inputs_share_key(self, contract):
        broker_a = BrokerService((metalcloud(),))
        broker_a.observe_provider("metalcloud", years=2.0, seed=5)
        broker_b = BrokerService((metalcloud(),))
        broker_b.observe_provider("metalcloud", years=2.0, seed=5)
        shared = EngineCache()
        with broker_a.session(engine_cache=shared) as session_a:
            session_a.recommend(three_tier_request(contract))
        with broker_b.session(engine_cache=shared) as session_b:
            session_b.recommend(three_tier_request(contract))
        assert shared.stats.misses == 1
        assert shared.stats.hits == 1

    @staticmethod
    def _key(base, contract, card, failover=None) -> EngineKey:
        return EngineKey.build(
            "metalcloud",
            base,
            contract,
            _rate_card_key(card),
            failover_minutes=failover or {"vm": 4.0},
            extended_catalog=False,
        )

    def test_key_holds_values(self, observed_broker, contract):
        provider = observed_broker.provider("metalcloud")
        request = three_tier_request(contract)
        base = observed_broker.materialize_topology(request, provider)
        key = self._key(base, contract, provider.rate_card)
        # The inputs themselves, not digests of their serializations.
        assert key.base_system is base
        assert key.contract is contract
        assert provider.rate_card.instance_types[0] in key.rate_card[0]
        # Rebuilt from the same data, the key is equal and hashes alike.
        again = self._key(
            observed_broker.materialize_topology(request, provider),
            Contract.linear(98.0, 100.0),
            provider.rate_card,
        )
        assert again == key and hash(again) == hash(key)
        assert {key: "engine"}[again] == "engine"

    def test_key_ignores_cluster_metadata(self, observed_broker, contract):
        provider = observed_broker.provider("metalcloud")
        base = observed_broker.materialize_topology(
            three_tier_request(contract), provider
        )
        tagged = base.replace_cluster(
            "compute",
            dataclasses.replace(
                base.cluster("compute"), metadata={"owner": "ops"}
            ),
        )
        assert self._key(tagged, contract, provider.rate_card) == self._key(
            base, contract, provider.rate_card
        )

    def test_every_serialized_topology_field_changes_key(
        self, observed_broker, contract
    ):
        """Key strictness: a topology differing in any one field that
        ``system_to_json`` writes is a different key."""
        from repro.topology.cluster import Layer
        from repro.topology.serialization import (
            cluster_to_dict,
            node_to_dict,
            system_to_dict,
        )

        provider = observed_broker.provider("metalcloud")
        card = provider.rate_card
        base = observed_broker.materialize_topology(
            three_tier_request(contract), provider
        )
        compute = base.cluster("compute")
        node_changes = {
            "kind": "vm-large",
            "down_probability": compute.node.down_probability * 1.5,
            "failures_per_year": compute.node.failures_per_year + 1.0,
            "monthly_cost": compute.node.monthly_cost + 1.0,
        }
        cluster_changes = {
            "name": "compute-2",
            "layer": Layer.OTHER,
            "total_nodes": compute.total_nodes + 1,
            "ha_technology": "custom",
            "monthly_ha_infra_cost": 10.0,
            "monthly_ha_labor_hours": 2.0,
        }
        # The vocabulary below covers every serialized field, so a new
        # field added to the wire form must be added here too.
        assert set(node_to_dict(compute.node)) == set(node_changes)
        assert set(cluster_to_dict(compute)) == set(cluster_changes) | {
            "node",
            "standby_tolerance",
            "failover_minutes",
        }
        assert set(system_to_dict(base)) == {"schema_version", "name", "clusters"}

        variants = [dataclasses.replace(base, name="other-system")]
        for field_name, value in node_changes.items():
            node = dataclasses.replace(compute.node, **{field_name: value})
            variants.append(
                base.replace_cluster(
                    "compute", dataclasses.replace(compute, node=node)
                )
            )
        for field_name, value in cluster_changes.items():
            variants.append(
                base.replace_cluster(
                    "compute",
                    dataclasses.replace(compute, **{field_name: value}),
                )
            )
        # K-hat and t only make sense together (t must be 0 without HA).
        with_ha = dataclasses.replace(
            compute,
            total_nodes=compute.total_nodes + 1,
            standby_tolerance=1,
            failover_minutes=3.0,
        )
        variants.append(base.replace_cluster("compute", with_ha))
        variants.append(
            base.replace_cluster(
                "compute", dataclasses.replace(with_ha, standby_tolerance=2)
            )
        )
        variants.append(
            base.replace_cluster(
                "compute", dataclasses.replace(with_ha, failover_minutes=4.0)
            )
        )
        variants.append(
            dataclasses.replace(base, clusters=tuple(reversed(base.clusters)))
        )
        cached = {self._key(base, contract, card): "base"}
        keys = [self._key(variant, contract, card) for variant in variants]
        for variant, key in zip(variants, keys):
            assert key not in cached, variant
        assert len(set(keys)) == len(keys)
        # Contract, rate card and failover estimates are keyed too.
        assert self._key(base, Contract.linear(98.5, 100.0), card) not in cached
        assert self._key(base, Contract.linear(98.0, 101.0), card) not in cached
        cheaper = dataclasses.replace(card, labor_rate_per_hour=1.0)
        assert self._key(base, contract, cheaper) not in cached
        assert self._key(base, contract, card, {"vm": 4.5}) not in cached

    def test_rate_card_mutated_in_place_changes_key(
        self, observed_broker, contract
    ):
        provider = observed_broker.provider("metalcloud")
        base = observed_broker.materialize_topology(
            three_tier_request(contract), provider
        )
        card = dataclasses.replace(
            provider.rate_card, ha_addons=dict(provider.rate_card.ha_addons)
        )
        before = self._key(base, contract, card)
        card.ha_addons["raid-controller"] = 1234.0
        assert self._key(base, contract, card) != before

    def test_unhashable_custom_clause_keys_by_repr(self, observed_broker):
        import dataclasses as dc

        from repro.sla.penalty import PenaltyClause
        from repro.sla.sla import UptimeSLA

        @dc.dataclass  # eq without frozen: instances are unhashable
        class MutablePenalty(PenaltyClause):
            rate: float

            def monthly_penalty(self, slippage_hours: float) -> float:
                self._check_slippage(slippage_hours)
                return self.rate * slippage_hours

            def describe(self) -> str:
                return f"${self.rate:,.2f}/h"

        mutable = Contract(sla=UptimeSLA(98.0), penalty=MutablePenalty(7.0))
        request = three_tier_request(mutable, providers=("metalcloud",))
        with observed_broker.session() as session:
            first = session.recommend(request)
            second = session.recommend(request)
            (key,) = session.engine_cache.keys()
            assert key.contract == repr(mutable)
            assert session.engine_cache.stats.hits == 1
            assert first.describe() == second.describe()

    def test_key_and_engine_read_one_telemetry_epoch(self, contract):
        """A flush adopting a new store mid-derivation must not give the
        engine P-hat/f-hat of one epoch and t-hat of the next."""
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=2.0, seed=5)
        newer = BrokerService((metalcloud(),))
        newer.observe_provider("metalcloud", years=2.0, seed=6)
        kinds = ("vm", "volume", "gateway")
        epochs = [
            {kind: source.knowledge_base.estimate("metalcloud", kind)
             for kind in kinds}
            for source in (broker, newer)
        ]
        for kind in kinds:
            old, new = epochs[0][kind], epochs[1][kind]
            assert old.down_probability != new.down_probability
            assert old.failover_minutes != new.failover_minutes

        materialize = broker.materialize_topology
        adopted = []

        def racing_materialize(*args, **kwargs):
            topology = materialize(*args, **kwargs)
            if not adopted:  # a flush lands right after the topology
                broker.telemetry.adopt(newer.telemetry)
                adopted.append(True)
            return topology

        broker.materialize_topology = racing_materialize
        with broker.session() as session:
            session.recommend(
                three_tier_request(contract, providers=("metalcloud",))
            )
            (key,) = session.engine_cache.keys()
            (engine,) = session.engine_cache.engines()
        assert adopted
        base = engine.problem.base_system
        failover = dict(key.variant[0])
        matches = [
            all(
                base.cluster(name).node.down_probability
                == epoch[kind].down_probability
                and failover[kind] == epoch[kind].failover_minutes
                for name, kind in (
                    ("compute", "vm"),
                    ("storage", "volume"),
                    ("network", "gateway"),
                )
            )
            for epoch in epochs
        ]
        assert matches.count(True) == 1, matches
        assert key.base_system == base


class TestWarmSession:
    def test_repeat_request_computes_no_new_cluster_terms(
        self, observed_broker, contract
    ):
        """Acceptance: a warm session re-serving a request does zero new
        per-(cluster, technology) term computations."""
        with observed_broker.session() as session:
            request = three_tier_request(contract)
            cold = session.recommend(request)
            terms_cold = session.engine_cache.cluster_term_computations()
            misses_cold = session.engine_cache.stats.misses
            warm = session.recommend(request)
            assert (
                session.engine_cache.cluster_term_computations() == terms_cold
            )
            assert session.engine_cache.stats.misses == misses_cold
            assert session.engine_cache.stats.hits == len(warm.recommendations)
            # Bit-identical, not approximately equal.
            for cold_rec, warm_rec in zip(
                cold.recommendations, warm.recommendations
            ):
                assert cold_rec.provider_name == warm_rec.provider_name
                assert [o.tco.total for o in cold_rec.result.options] == [
                    o.tco.total for o in warm_rec.result.options
                ]
            assert cold.describe() == warm.describe()

    def test_warm_request_is_pure_cache_hits(self, observed_broker, contract):
        with observed_broker.session() as session:
            request = three_tier_request(contract)
            session.recommend(request)
            before = {
                id(engine): engine.stats.snapshot()
                for engine in session.engine_cache.engines()
            }
            session.recommend(request)
            for engine in session.engine_cache.engines():
                stats, prior = engine.stats, before[id(engine)]
                assert stats.incremental_combines == prior.incremental_combines
                assert (
                    stats.candidate_evaluations - prior.candidate_evaluations
                    == stats.cache_hits - prior.cache_hits
                )
                assert stats.cache_hits > prior.cache_hits

    def test_brute_force_caches_payloads_not_topologies(
        self, observed_broker, contract
    ):
        cache = EngineCache()
        with observed_broker.session(engine_cache=cache) as session:
            session.recommend(three_tier_request(
                contract, providers=("metalcloud",), strategy="brute-force"
            ))
        (engine,) = cache.engines()
        # The engine evaluated the whole space, and its cache holds
        # each candidate's Eq. 1-5 payload — one flat tuple of floats
        # and the SLA verdict — never an option, so no topology can
        # hide in it.
        assert engine.stats.incremental_combines == engine.space.size
        assert len(engine._results) == engine.space.size
        for indices, payload in engine._results.items():
            assert type(indices) is tuple
            assert type(payload) is tuple
            assert [type(value) for value in payload] == (
                [float] * 8 + [bool] + [float] * engine.space.cluster_count
            )

    def test_engine_stats_are_snapshots(self, observed_broker, contract):
        with observed_broker.session() as session:
            request = three_tier_request(contract)
            first = session.recommend(request)
            frozen = first.for_provider("metalcloud").engine_stats
            evaluations_then = frozen.candidate_evaluations
            session.recommend(request)
            assert frozen.candidate_evaluations == evaluations_then

    def test_engine_stats_are_per_request_deltas(
        self, observed_broker, contract
    ):
        """Warm reports audit only their own work, not the engine's
        lifetime counters (v1 semantics)."""
        with observed_broker.session() as session:
            request = three_tier_request(contract)
            cold = session.recommend(request).for_provider("metalcloud")
            warm = session.recommend(request).for_provider("metalcloud")
            # Cold request owns the construction-time n*k precompute...
            assert cold.engine_stats.cluster_term_computations == 6
            assert cold.engine_stats.incremental_combines > 0
            # ...the warm repeat did zero fresh model work.
            assert warm.engine_stats.cluster_term_computations == 0
            assert warm.engine_stats.incremental_combines == 0
            assert (
                warm.engine_stats.cache_hits
                == warm.engine_stats.candidate_evaluations
                == cold.engine_stats.candidate_evaluations
            )

    def test_custom_penalty_clause_supported(self, observed_broker):
        """Extending the PenaltyClause ABC must not break sessions —
        unknown clauses fingerprint via repr instead of the wire form."""
        import dataclasses as dc

        from repro.sla.penalty import PenaltyClause
        from repro.sla.sla import UptimeSLA

        @dc.dataclass(frozen=True)
        class QuadraticPenalty(PenaltyClause):
            rate: float

            def monthly_penalty(self, slippage_hours: float) -> float:
                self._check_slippage(slippage_hours)
                return self.rate * slippage_hours**2

            def describe(self) -> str:
                return f"${self.rate:,.2f}/h^2"

        exotic = Contract(sla=UptimeSLA(98.0), penalty=QuadraticPenalty(10.0))
        with observed_broker.session() as session:
            first = session.recommend(three_tier_request(exotic))
            terms = session.engine_cache.cluster_term_computations()
            second = session.recommend(three_tier_request(exotic))
            # The repr fallback still keys deterministically: warm hit.
            assert session.engine_cache.cluster_term_computations() == terms
            assert first.describe() == second.describe()


class TestBatchAndJobs:
    def test_submitted_batch_matches_sequential(self, observed_broker):
        """Acceptance: >= 8 batched requests, bit-identical to sequential."""
        requests = [
            three_tier_request(Contract.linear(sla, penalty), compute_nodes=nodes)
            for sla, penalty, nodes in [
                (98.0, 100.0, 3),
                (98.0, 100.0, 3),  # duplicate: exercises warm engines
                (99.0, 100.0, 3),
                (98.0, 250.0, 3),
                (98.0, 100.0, 4),
                (99.5, 500.0, 3),
                (98.0, 0.0, 3),
                (98.0, 100.0, 2),
            ]
        ]
        with observed_broker.session(max_workers=4) as batch_session:
            job_ids = [batch_session.submit(request) for request in requests]
            batched = tuple(batch_session.result(job_id) for job_id in job_ids)
        with observed_broker.session() as sequential_session:
            sequential = tuple(
                sequential_session.recommend(request) for request in requests
            )
        assert len(batched) == len(sequential) == 8
        for batch_report, seq_report in zip(batched, sequential):
            assert batch_report.describe() == seq_report.describe()
            for batch_rec, seq_rec in zip(
                batch_report.recommendations, seq_report.recommendations
            ):
                assert [o.tco.total for o in batch_rec.result.options] == [
                    o.tco.total for o in seq_rec.result.options
                ]

    def test_job_lifecycle(self, observed_broker, contract):
        with observed_broker.session() as session:
            job_id = session.submit(three_tier_request(contract))
            assert job_id == "job-000001"
            report = session.result(job_id, timeout=60.0)
            assert session.poll(job_id) == "done"
            assert report.best.provider_name in {
                "metalcloud", "stratus", "cumulus",
            }

    def test_submit_envelope_keeps_request_id(self, observed_broker, contract):
        with observed_broker.session() as session:
            envelope = RecommendEnvelope(
                three_tier_request(contract), request_id="customer-42"
            )
            job_id = session.submit(envelope)
            report_envelope = session.result_envelope(job_id, timeout=60.0)
            assert report_envelope.request_id == "customer-42"

    def test_failed_job_reraises(self, contract):
        broker = BrokerService((metalcloud(),))  # never observed
        with broker.session() as session:
            job_id = session.submit(three_tier_request(contract))
            with pytest.raises(InsufficientTelemetryError):
                session.result(job_id, timeout=60.0)
            assert session.poll(job_id) == "failed"

    def test_unknown_job_id(self, session):
        with pytest.raises(BrokerError, match="unknown job"):
            session.poll("job-999999")

    def test_closed_session_rejects_submissions(self, observed_broker, contract):
        session = observed_broker.session()
        session.close()
        with pytest.raises(BrokerError, match="closed"):
            session.submit(three_tier_request(contract))


class TestSessionMetrics:
    def test_metrics_exposes_cache_stats_without_internals(
        self, session, contract
    ):
        request = three_tier_request(contract)
        session.recommend(request)
        session.recommend(request)
        metrics = session.metrics()
        assert metrics["engine_cache"] == session.engine_cache.stats.to_dict()
        assert set(metrics["engine_cache"]) == {
            "hits",
            "misses",
            "evictions",
            "replays",
        }
        assert metrics["engine_cache"]["misses"] >= 3  # one engine/provider
        assert metrics["engine_cache"]["hits"] >= 3  # warm repeat
        assert metrics["engines_cached"] == len(session.engine_cache)
        assert metrics["cluster_term_computations"] > 0

    def test_metrics_counts_jobs_by_status(self, observed_broker, contract):
        with observed_broker.session() as session:
            fresh = session.metrics()
            assert fresh["jobs"] == {
                "pending": 0, "running": 0, "done": 0, "failed": 0,
            }
            assert fresh["job_queue_depth"] == 0
            job_id = session.submit(three_tier_request(contract))
            session.result(job_id)
            bad = session.submit(
                three_tier_request(contract, providers=("nimbus-9",))
            )
            with pytest.raises(BrokerError):
                session.result(bad)
            done = session.metrics()
        assert done["jobs"]["done"] == 1
        assert done["jobs"]["failed"] == 1
        assert done["job_queue_depth"] == 0

    def test_metrics_is_json_safe(self, session):
        import json

        json.dumps(session.metrics())


class TestJobRetention:
    def test_retrieved_jobs_evicted_oldest_first(self, observed_broker, contract):
        request = three_tier_request(contract)
        with observed_broker.session(max_finished_jobs=2) as session:
            ids = []
            for _ in range(4):
                job_id = session.submit(request)
                session.result(job_id)  # retrieve before the next submit
                ids.append(job_id)
            # Submitting the 4th evicted the oldest retrieved records.
            kept = [job.job_id for job in session.jobs()]
            assert ids[-1] in kept
            assert len(kept) <= 3  # cap + the just-submitted job
            with pytest.raises(BrokerError, match="unknown job"):
                session.poll(ids[0])
            # The most recent finished job is still queryable.
            assert session.poll(ids[-1]) == "done"

    def test_unretrieved_results_survive_any_backlog(
        self, observed_broker, contract
    ):
        # A batch larger than the cap stays collectable: jobs finished
        # but never handed out are not eviction candidates.
        request = three_tier_request(contract)
        with observed_broker.session(max_finished_jobs=1) as session:
            job_ids = [session.submit(request) for _ in range(6)]
            reports = [session.result(job_id) for job_id in job_ids]
        assert len(reports) == 6  # every submission completed and returned

    def test_submitted_batch_unaffected_by_small_cap(
        self, observed_broker, contract
    ):
        # Results are collected in submission order while later jobs
        # finish: each retrieval makes its job evictable, never a
        # finished job still waiting for its caller.
        request = three_tier_request(contract)
        with observed_broker.session(max_finished_jobs=1) as session:
            job_ids = [session.submit(request) for _ in range(5)]
            reports = []
            for job_id in job_ids:
                reports.append(session.result(job_id))
                session.submit(request)  # runs both retention policies
        assert len(reports) == 5
        assert len({report.describe() for report in reports}) == 1

    def test_max_finished_jobs_validated(self, observed_broker):
        with pytest.raises(BrokerError, match="max_finished_jobs"):
            observed_broker.session(max_finished_jobs=0).__enter__()


class TestCompatibilityShim:
    """One-shot recommendation guarantees, served through a session."""

    def test_unobserved_broker_still_raises(self, contract):
        broker = BrokerService((metalcloud(),))
        with broker.session() as session:
            with pytest.raises(InsufficientTelemetryError, match="metalcloud: "):
                session.recommend(three_tier_request(contract))

    def test_unobserved_provider_is_skipped(self, contract):
        broker = BrokerService(all_providers())
        broker.observe_provider("stratus", years=3.0, seed=23)
        with broker.session() as session:
            report = session.recommend(three_tier_request(contract))
        assert [rec.provider_name for rec in report.recommendations] == [
            "stratus"
        ]


class TestRetiredBackendField:
    """``RecommendationRequest.backend`` is validated, then ignored.

    Every search runs the engine's one scalar kernel; the field stays
    only for wire compatibility.  A request that differs only in its
    backend is the same request: it hits the cached engines and does
    zero new cluster-term computations or combines.
    """

    def test_backend_travels_in_request_envelopes(self, contract):
        request = three_tier_request(
            contract, strategy="brute-force", backend="vector"
        )
        assert request_from_dict(request_to_dict(request)) == request
        envelope = RecommendEnvelope(request=request)
        assert RecommendEnvelope.from_json(envelope.to_json()) == envelope

    def test_backend_key_is_optional_on_the_wire(self, contract):
        request = three_tier_request(contract, strategy="brute-force")
        payload = request_to_dict(request)
        assert payload.pop("backend") is None
        assert request_from_dict(payload) == request

    @pytest.mark.parametrize("backend", ["quantum", "process"])
    def test_invalid_backend_rejected_at_request(self, contract, backend):
        with pytest.raises(ValidationError, match="backend"):
            three_tier_request(contract, backend=backend)

    def test_backend_value_is_a_warm_hit(self, observed_broker, contract):
        """Serving the same request under another backend value is a
        cache hit and computes no new cluster terms."""
        request = three_tier_request(
            contract, strategy="brute-force", backend="serial"
        )
        with observed_broker.session() as session:
            cold = session.recommend(request)
            stats = session.engine_cache.stats
            misses_cold, hits_cold = stats.misses, stats.hits
            terms_cold = session.engine_cache.cluster_term_computations()
            for backend in ("vector", None):
                switched = session.recommend(
                    dataclasses.replace(request, backend=backend)
                )
                assert stats.misses == misses_cold, backend
                assert (
                    session.engine_cache.cluster_term_computations()
                    == terms_cold
                ), backend
                for cold_rec, warm_rec in zip(
                    cold.recommendations, switched.recommendations
                ):
                    assert [o.tco.total for o in cold_rec.result.options] == [
                        o.tco.total for o in warm_rec.result.options
                    ]
            assert stats.hits == hits_cold + 2 * len(cold.recommendations)

    def test_backend_value_does_no_new_combines(
        self, observed_broker, contract
    ):
        request = three_tier_request(
            contract, strategy="brute-force", backend="serial"
        )
        with observed_broker.session() as session:
            session.recommend(request)
            before = {
                id(engine): engine.stats.snapshot()
                for engine in session.engine_cache.engines()
            }
            warm = session.recommend(
                dataclasses.replace(request, backend="vector")
            ).for_provider("metalcloud")
            assert warm.engine_stats.cluster_term_computations == 0
            assert warm.engine_stats.incremental_combines == 0
            for engine in session.engine_cache.engines():
                prior = before[id(engine)]
                assert (
                    engine.stats.incremental_combines
                    == prior.incremental_combines
                )

    @pytest.mark.parametrize(
        "open_session",
        [
            lambda broker: broker.session(backend="vector"),
            lambda broker: BrokerSession(broker, backend="vector"),
        ],
        ids=["service.session", "BrokerSession"],
    )
    def test_session_takes_no_backend_parameter(
        self, observed_broker, open_session
    ):
        with pytest.raises(TypeError, match="backend"):
            open_session(observed_broker)

    def test_backend_environment_variable_is_not_read(
        self, observed_broker, contract, monkeypatch
    ):
        # REPRO_BACKEND named the default backend; nothing reads it now,
        # so even a value no backend ever had leaves sessions working.
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with observed_broker.session() as session:
            report = session.recommend(
                three_tier_request(contract, strategy="brute-force")
            )
        assert report.recommendations


class TestTtlEviction:
    """Age-based reclaim of finished-but-never-retrieved jobs.

    The count-based policy only evicts *retrieved* jobs, so a
    fire-and-forget submitter used to grow the table forever (the
    ROADMAP leak); ``finished_job_ttl`` reclaims those too once they
    age out, and both eviction paths are visible in ``metrics()``.
    """

    @staticmethod
    def _fake_clock(session):
        now = [0.0]
        session._clock = lambda: now[0]
        return now

    def test_ttl_reclaims_fire_and_forget_jobs(self, observed_broker, contract):
        request = three_tier_request(contract)
        with observed_broker.session(finished_job_ttl=60.0) as session:
            now = self._fake_clock(session)
            abandoned = session.submit(request)
            session.job(abandoned).done.wait(timeout=30.0)
            # Never retrieved: within the TTL it survives submissions...
            session.result(session.submit(request))
            assert session.poll(abandoned) == "done"
            # ...and past the TTL the next submission reclaims it.
            now[0] = 61.0
            session.result(session.submit(request))
            with pytest.raises(BrokerError, match="unknown job"):
                session.poll(abandoned)
            assert session.metrics()["jobs_evicted"]["ttl"] >= 1

    def test_ttl_evicts_retrieved_jobs_too(self, observed_broker, contract):
        request = three_tier_request(contract)
        with observed_broker.session(finished_job_ttl=10.0) as session:
            now = self._fake_clock(session)
            fetched = session.submit(request)
            session.result(fetched)
            now[0] = 11.0
            session.submit(request)
            with pytest.raises(BrokerError, match="unknown job"):
                session.poll(fetched)

    def test_pending_and_fresh_jobs_never_ttl_evicted(
        self, observed_broker, contract
    ):
        request = three_tier_request(contract)
        with observed_broker.session(finished_job_ttl=1e-6) as session:
            # Jobs are evicted only on later submissions, and only once
            # finished — a just-submitted job is always pollable.
            job_id = session.submit(request)
            assert session.poll(job_id) in ("pending", "running", "done")
            report = session.result(job_id)
            assert report.recommendations

    def test_both_eviction_paths_counted_in_metrics(
        self, observed_broker, contract
    ):
        request = three_tier_request(contract)
        with observed_broker.session(
            max_finished_jobs=1, finished_job_ttl=60.0
        ) as session:
            now = self._fake_clock(session)
            evicted = session.metrics()["jobs_evicted"]
            assert evicted == {"retrieved": 0, "ttl": 0}
            # Count-based path: two retrieved jobs, cap of one.
            for _ in range(2):
                session.result(session.submit(request))
            session.result(session.submit(request))
            assert session.metrics()["jobs_evicted"]["retrieved"] >= 1
            # TTL path: abandon one, age it out.
            abandoned = session.submit(request)
            session.job(abandoned).done.wait(timeout=30.0)
            now[0] = 61.0
            session.result(session.submit(request))
            metrics = session.metrics()
            assert metrics["jobs_evicted"]["ttl"] >= 1
            assert set(metrics["jobs_evicted"]) == {"retrieved", "ttl"}

    def test_finished_job_ttl_validated(self, observed_broker):
        # A NaN TTL would never expire a job.
        for ttl in (0.0, math.nan, math.inf):
            with pytest.raises(BrokerError, match="finished_job_ttl"):
                observed_broker.session(finished_job_ttl=ttl)


class TestEnvelopeFieldRoundTrip:
    """REP005's runtime twin: every wire type survives the round trip.

    The static rule checks the *key sets* of to_dict/from_dict agree
    with the dataclass fields; these tests check the *values* survive,
    field by field, for a representative instance of every envelope
    type the broker can put on the wire.
    """

    def _option(self, option_id=3):
        return OptionSummary(
            option_id=option_id,
            choice_names=("hypervisor-n+1", "raid-1", "dual-gateway"),
            clustered_components=("compute",),
            uptime_probability=0.9987,
            ha_cost=1234.56,
            expected_penalty=78.9,
            tco_total=1313.46,
            total_with_base=9313.46,
            meets_sla=True,
        )

    def _provider_report(self, engine_stats=None):
        return ProviderReport(
            provider_name="metalcloud",
            strategy="pruned",
            evaluations=14,
            pruned=2,
            space_size=16,
            best=self._option(3),
            min_penalty=self._option(5),
            engine_stats=engine_stats,
        )

    def _samples(self, contract):
        yield RecommendEnvelope(
            request=three_tier_request(contract), request_id="req-7"
        )
        yield self._option()
        yield self._provider_report(engine_stats={"combines": 12, "hits": 3})
        yield self._provider_report(engine_stats=None)
        yield ReportEnvelope(
            request_name="three-tier",
            providers=(self._provider_report(),),
            request_id="req-7",
        )
        yield ErrorEnvelope(
            status=422,
            error="validation-error",
            message="sla percent out of range",
            request_id="req-7",
        )

    def test_every_envelope_round_trips_field_by_field(self, contract):
        for envelope in self._samples(contract):
            restored = type(envelope).from_dict(envelope.to_dict())
            for field_info in dataclasses.fields(envelope):
                assert getattr(restored, field_info.name) == getattr(
                    envelope, field_info.name
                ), f"{type(envelope).__name__}.{field_info.name}"
            assert restored == envelope

    def test_every_dataclass_field_is_a_wire_key(self, contract):
        for envelope in self._samples(contract):
            keys = set(envelope.to_dict())
            for field_info in dataclasses.fields(envelope):
                assert field_info.name in keys, (
                    f"{type(envelope).__name__}.{field_info.name} "
                    "missing from to_dict"
                )
