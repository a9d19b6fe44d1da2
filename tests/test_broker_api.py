"""Broker API v2: envelopes, sessions, jobs, streaming, engine cache."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.broker.api import (
    BrokerSession,
    EngineCache,
    EngineKey,
    contract_fingerprint,
    rate_card_fingerprint,
    system_signature,
)
from repro.broker.envelope import (
    EVENT_KINDS,
    ErrorEnvelope,
    OptionSummary,
    ProgressEvent,
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
    ReproError,
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
            engine="incremental",
            backend="process",
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

    def test_progress_event_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="event kind"):
            ProgressEvent("teleported")


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

    def test_clear_closes_dropped_engine_pools(self):
        from repro.optimizer.pools import PoolRegistry

        registry = PoolRegistry()
        cache = EngineCache(capacity=2)

        def build() -> EvaluationEngine:
            return EvaluationEngine(
                case_study_problem(), backend="process",
                max_workers=1, pool_registry=registry,
            )

        entry = cache.entry(self._key("a"), build)
        list(entry.engine.evaluate_all())
        assert registry.active_pools() == (("process", 1),)
        cache.clear()
        assert entry.closed
        assert registry.active_pools() == ()


class TestEvictionLifecycle:
    """LRU eviction must release engines' worker pools, not leak them."""

    @staticmethod
    def _key(tag: str) -> EngineKey:
        return EngineKey(
            provider="p", base_system=tag, contract="c", rate_card="r",
            variant=(),
        )

    @staticmethod
    def _build(registry, backend: str = "process"):
        def build() -> EvaluationEngine:
            return EvaluationEngine(
                case_study_problem(), backend=backend,
                max_workers=1, pool_registry=registry, chunk_size=4,
            )
        return build

    def test_eviction_closes_the_evicted_engines_pool(self):
        from repro.optimizer.pools import PoolRegistry

        registry = PoolRegistry()
        cache = EngineCache(capacity=1)
        entry_a = cache.entry(self._key("a"), self._build(registry))
        list(entry_a.engine.evaluate_all())  # spin the worker pool up
        assert registry.holders("process", 1) == 1
        # Inserting a second key evicts (and must close) the first.
        cache.entry(self._key("b"), self._build(registry))
        assert entry_a.evicted and entry_a.closed
        assert cache.stats.evictions == 1
        assert cache.stats.evicted_engines_closed == 1
        assert cache.stats.deferred_engine_closes == 0
        assert entry_a.engine._backend_impl._pool is None
        assert registry.active_pools() == ()  # last holder released
        cache.clear()

    def test_eviction_defers_close_to_in_flight_holder(self):
        from repro.optimizer.pools import PoolRegistry

        registry = PoolRegistry()
        cache = EngineCache(capacity=1)
        entry_a = cache.entry(self._key("a"), self._build(registry))
        list(entry_a.engine.evaluate_all())
        # Simulate an in-flight request: the entry's lock is held while
        # another request's miss evicts this entry.
        assert entry_a.lock.acquire(blocking=False)
        try:
            cache.entry(self._key("b"), self._build(registry))
            assert entry_a.evicted and not entry_a.closed
            assert cache.stats.deferred_engine_closes == 1
            assert cache.stats.evicted_engines_closed == 0
            # The engine keeps serving the in-flight request meanwhile.
            assert registry.holders("process", 1) == 1
        finally:
            entry_a.lock.release()
        # The holder completes the close on its way out.
        cache.finish(entry_a)
        assert entry_a.closed
        assert cache.stats.evicted_engines_closed == 1
        assert entry_a.engine._backend_impl._pool is None
        cache.clear()

    def test_finish_recloses_an_engine_revived_after_eviction(self):
        from repro.optimizer.pools import PoolRegistry

        registry = PoolRegistry()
        cache = EngineCache(capacity=1)
        entry_a = cache.entry(self._key("a"), self._build(registry))
        list(entry_a.engine.evaluate_all())
        cache.entry(self._key("b"), self._build(registry))
        assert entry_a.closed  # eviction closed it while unheld
        # A holder that resolved the entry before eviction revives the
        # closed engine just by evaluating on it (lazy re-acquire)...
        list(entry_a.engine.evaluate_all())
        assert entry_a.engine._backend_impl._pool is not None
        assert registry.holders("process", 1) == 1
        # ...so its finish() must re-close, or the lease leaks forever.
        cache.finish(entry_a)
        assert entry_a.engine._backend_impl._pool is None
        assert registry.active_pools() == ()
        # The first close was already counted; re-closes are not.
        assert cache.stats.evicted_engines_closed == 1
        cache.clear()

    def test_session_eviction_closes_engines_between_requests(
        self, observed_broker
    ):
        with observed_broker.session(
            cache_capacity=1, backend="process"
        ) as session:
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
            survivor = session.engine_cache.engines()
            assert len(survivor) == 1
            session.recommend(second)
            stats = session.engine_cache.stats
            assert stats.evictions == 1
            assert stats.evicted_engines_closed == 1
            # The evicted engine's pool lease is gone; the survivor's
            # engine still serves warm repeats.
            assert survivor[0]._backend_impl._pool is None
            repeat = session.recommend(second)
            assert repeat.recommendations

    def test_stats_serialization(self):
        stats = EngineCache(capacity=2).stats
        assert stats.to_dict() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "evicted_engines_closed": 0,
            "deferred_engine_closes": 0,
        }
        assert "hit rate" in stats.describe()


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

    def test_fingerprints_are_stable_hex(self, observed_broker, contract):
        provider = observed_broker.provider("metalcloud")
        base = observed_broker.materialize_topology(
            three_tier_request(contract), provider
        )
        for fingerprint in (
            system_signature(base),
            contract_fingerprint(contract),
            rate_card_fingerprint(provider.rate_card),
        ):
            assert len(fingerprint) == 64
            int(fingerprint, 16)  # hex digest


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
                assert stats.topology_evaluations == 0
                assert stats.cache_hits > prior.cache_hits

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
    def test_recommend_many_matches_sequential(self, observed_broker):
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
            batched = batch_session.recommend_many(requests)
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


class TestStreaming:
    def test_event_sequence_and_distillation(self, observed_broker, contract):
        with observed_broker.session() as session:
            request = three_tier_request(
                contract, providers=("metalcloud",), strategy="brute-force"
            )
            events = list(session.stream(request, progress_every=2))
        kinds = [event.kind for event in events]
        assert kinds[0] == "accepted"
        assert kinds[1] == "provider-started"
        assert "progress" in kinds
        assert kinds[-2] == "provider-completed"
        assert kinds[-1] == "completed"
        report_payload = events[-1].detail["report"]
        restored = ReportEnvelope.from_dict(report_payload)
        assert restored.best.provider_name == "metalcloud"

    def test_streaming_never_materializes_topologies(
        self, observed_broker, contract
    ):
        """Distilled sweeps keep option tables and topologies unbuilt."""
        cache = EngineCache()
        with observed_broker.session(engine_cache=cache) as session:
            request = three_tier_request(
                contract, providers=("metalcloud",), strategy="brute-force"
            )
            list(session.stream(request))
        (engine,) = cache.engines()
        # The engine evaluated the whole space but no candidate was ever
        # asked for its SystemTopology.
        assert engine.stats.incremental_combines == engine.space.size
        for option in engine._results.values():
            assert not option.system_is_materialized

    def test_abandoned_stream_does_not_hold_engine_lock(
        self, observed_broker, contract
    ):
        """A partially-consumed stream generator must not block other
        requests sharing its cached engine (deadlock regression)."""
        with observed_broker.session() as session:
            request = three_tier_request(
                contract, providers=("metalcloud",), strategy="brute-force"
            )
            stream = session.stream(request, progress_every=1)
            for event in stream:
                if event.kind == "progress":
                    break  # abandon mid-sweep, generator still alive
            job_id = session.submit(request)
            report = session.result(job_id, timeout=10.0)
            assert report.best.provider_name == "metalcloud"
            stream.close()

    def test_streaming_skips_unobserved_provider(self, contract):
        broker = BrokerService((metalcloud(),))
        with broker.session() as session:
            events = list(session.stream(three_tier_request(contract)))
        kinds = [event.kind for event in events]
        assert "provider-skipped" in kinds
        assert kinds[-1] == "failed"


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
            "evicted_engines_closed",
            "deferred_engine_closes",
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

    def test_recommend_many_unaffected_by_small_cap(
        self, observed_broker, contract
    ):
        request = three_tier_request(contract)
        with observed_broker.session(max_finished_jobs=1) as session:
            reports = session.recommend_many([request] * 5)
        assert len(reports) == 5

    def test_max_finished_jobs_validated(self, observed_broker):
        with pytest.raises(BrokerError, match="max_finished_jobs"):
            observed_broker.session(max_finished_jobs=0).__enter__()


class TestCompatibilityShim:
    """One-shot recommendation guarantees, served through a session."""

    def test_unobserved_broker_still_raises(self, contract):
        broker = BrokerService((metalcloud(),))
        with broker.session() as session:
            with pytest.raises(InsufficientTelemetryError):
                session.recommend(three_tier_request(contract))


class TestBackendSwitch:
    """Engine-cache x evaluation-backend interaction.

    The backend is where the float math runs, never what it computes, so
    it is excluded from :class:`EngineKey` — switching a warm session to
    a different backend must hit the cached engines (rebinding them in
    place) and do zero new cluster-term computations.
    """

    def test_backend_travels_in_request_envelopes(self, contract):
        request = three_tier_request(
            contract, strategy="brute-force", backend="process"
        )
        assert request_from_dict(request_to_dict(request)) == request
        envelope = RecommendEnvelope(request=request)
        assert RecommendEnvelope.from_json(envelope.to_json()) == envelope

    def test_invalid_backend_rejected_at_request(self, contract):
        with pytest.raises(ValidationError, match="backend"):
            three_tier_request(contract, backend="quantum")

    @pytest.mark.parametrize("backend", ["process", "vector"])
    def test_term_table_backend_with_direct_engine_rejected_at_request(
        self, contract, backend
    ):
        # Fails at the request boundary like every other bad shape,
        # not deep inside a job as an engine error.
        with pytest.raises(ValidationError, match="incremental"):
            three_tier_request(contract, engine="direct", backend=backend)

    def test_warm_cache_survives_backend_switch(self, observed_broker, contract):
        """Acceptance: serving the same request on a different backend is
        a cache hit and computes no new cluster terms."""
        request = three_tier_request(
            contract, strategy="brute-force", backend="serial"
        )
        with observed_broker.session() as session:
            cold = session.recommend(request)
            stats = session.engine_cache.stats
            misses_cold, hits_cold = stats.misses, stats.hits
            terms_cold = session.engine_cache.cluster_term_computations()
            for backend in ("process", "vector", "serial"):
                switched = session.recommend(
                    dataclasses.replace(request, backend=backend)
                )
                # EngineCacheStats: pure hits, zero new engines/terms.
                assert stats.misses == misses_cold, backend
                assert (
                    session.engine_cache.cluster_term_computations()
                    == terms_cold
                ), backend
                for engine in session.engine_cache.engines():
                    assert engine.backend == backend
                # Bit-identical reports either way.
                for cold_rec, warm_rec in zip(
                    cold.recommendations, switched.recommendations
                ):
                    assert [o.tco.total for o in cold_rec.result.options] == [
                        o.tco.total for o in warm_rec.result.options
                    ]
            assert stats.hits == hits_cold + 3 * len(cold.recommendations)

    def test_warm_switch_does_no_new_combines(self, observed_broker, contract):
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
                dataclasses.replace(request, backend="process")
            ).for_provider("metalcloud")
            assert warm.engine_stats.cluster_term_computations == 0
            assert warm.engine_stats.incremental_combines == 0
            for engine in session.engine_cache.engines():
                prior = before[id(engine)]
                assert (
                    engine.stats.incremental_combines
                    == prior.incremental_combines
                )

    def test_session_default_backend_applies(self, observed_broker, contract):
        with observed_broker.session(backend="process") as session:
            request = three_tier_request(contract, strategy="brute-force")
            session.recommend(request)
            assert all(
                engine.backend == "process"
                for engine in session.engine_cache.engines()
            )

    def test_request_backend_beats_session_default(
        self, observed_broker, contract
    ):
        with observed_broker.session(backend="process") as session:
            request = three_tier_request(
                contract, strategy="brute-force", backend="serial"
            )
            session.recommend(request)
            assert all(
                engine.backend == "serial"
                for engine in session.engine_cache.engines()
            )

    def test_session_rejects_unknown_backend(self, observed_broker):
        with pytest.raises(ReproError, match="backend"):
            observed_broker.session(backend="quantum")


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
        with pytest.raises(BrokerError, match="finished_job_ttl"):
            observed_broker.session(finished_job_ttl=0.0)


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
        for kind in EVENT_KINDS:
            yield ProgressEvent(
                kind=kind,
                request_id="req-7",
                provider="metalcloud",
                detail={"completed": 2, "total": 4},
            )
        yield ProgressEvent(kind="accepted")  # optional fields at defaults

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

    def test_progress_event_json_round_trip(self):
        event = ProgressEvent(
            kind="provider-completed",
            request_id="req-1",
            provider="steelcore",
            detail={"rank": 1},
        )
        assert ProgressEvent.from_json(event.to_json()) == event

    def test_progress_event_rejects_unknown_keys(self):
        payload = ProgressEvent(kind="accepted").to_dict()
        payload["surprise"] = True
        with pytest.raises(ValidationError, match="surprise"):
            ProgressEvent.from_dict(payload)

    def test_progress_event_requires_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            ProgressEvent.from_dict({"request_id": "req-1"})

    def test_progress_event_rejects_non_mapping_detail(self):
        with pytest.raises(ValidationError, match="detail"):
            ProgressEvent.from_dict({"kind": "accepted", "detail": [1, 2]})
