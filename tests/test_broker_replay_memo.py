"""The per-engine replay memo: a warm hit that replays nothing.

A cache entry stores a wire report section per strategy once a wire
serve was a pure replay, and later wire hits return it
without searching.  ``session.recommend()`` never reads or fills it:
its callers read full option tables.  These tests pin what the memo
must never change (the bytes of every report, ``engine_stats``
included) and when it must not apply (first services, serves that
combined new terms, any change of the inputs the engine key holds).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.broker import api, service
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.provider import CloudProvider
from repro.cloud.providers import all_providers, metalcloud
from repro.obs.trace import Tracer
from repro.sla.contract import Contract
from repro.topology import serialization

STRATEGIES = ("pruned", "brute-force", "branch-and-bound")


@pytest.fixture(scope="module")
def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=2.0, seed=23)
    return broker


def one_provider_broker(seed: int = 5) -> BrokerService:
    broker = BrokerService((metalcloud(),))
    broker.observe_provider("metalcloud", years=2.0, seed=seed)
    return broker


def request(**kwargs):
    return three_tier_request(Contract.linear(98.0, 100.0), **kwargs)


def serve(session, req) -> ReportEnvelope:
    return session.recommend_envelope(RecommendEnvelope(request=req))


def report_bytes(session, req) -> str:
    return serve(session, req).to_json()


def forget_aliases(session) -> None:
    """Make the next wire serve take the slow path (key derivation)."""
    session.engine_cache._aliases.clear()


def without_engine_stats(report) -> dict:
    if not isinstance(report, ReportEnvelope):
        report = ReportEnvelope.from_report(report)
    payload = report.to_dict()
    for entry in payload["providers"]:
        entry.pop("engine_stats")
    return payload


def memos(session) -> list[dict]:
    return [entry.replays for entry in session.engine_cache._entries.values()]


class TestReplayCounting:
    def test_three_identical_recommends(self, observed_broker):
        with observed_broker.session() as session:
            for _ in range(3):
                serve(session, request())
            stats = session.engine_cache.stats
        # First request: first service (3 misses).  Second: 3 hits that
        # replay and fill the memo.  Third: 3 hits answered by it.
        assert (stats.hits, stats.misses, stats.replays) == (6, 3, 3)
        assert session.metrics()["engine_cache"]["replays"] == 3
        assert "3 replays" in stats.describe()

    def test_recommend_neither_reads_nor_fills_the_memo(self, observed_broker):
        with observed_broker.session() as session:
            for _ in range(3):
                report = session.recommend(request())
            assert session.engine_cache.stats.replays == 0
            assert memos(session) == [{}, {}, {}]
            serve(session, request())  # a pure replay: memoizes
            assert all(memo for memo in memos(session))
            again = session.recommend(request())
            assert session.engine_cache.stats.replays == 0
        for recommendation in again.recommendations:
            result = recommendation.result
            assert len(result.options) == result.evaluations
        assert without_engine_stats(again) == without_engine_stats(report)


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_memo_hits_equal_a_replay(self, observed_broker, strategy):
        req = request(strategy=strategy)
        with observed_broker.session() as session:
            served = [report_bytes(session, req) for _ in range(4)]
            assert session.engine_cache.stats.replays == 6  # serves 3-4
            for memo in memos(session):
                memo.clear()
            replayed = report_bytes(session, req)
            assert session.engine_cache.stats.replays == 6
        assert served[1:] == [replayed] * 3
        assert served[0] != replayed  # the first serve built the terms

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_backend_value_shares_the_memo(self, observed_broker, strategy):
        # The retired backend field is not part of the memo key: once a
        # warm contract's report is memoized, a request that differs
        # only in its backend value is answered from the memo.
        with observed_broker.session() as session:
            for _ in range(2):
                memoized = report_bytes(
                    session, request(strategy=strategy, backend="serial")
                )
            assert session.engine_cache.stats.replays == 0
            for backend in ("vector", None):
                assert report_bytes(
                    session, request(strategy=strategy, backend=backend)
                ) == memoized
            assert session.engine_cache.stats.replays == 6
            for memo in memos(session):
                assert list(memo) == [strategy]

    def test_memo_hit_equals_a_fresh_session_replay(self, observed_broker):
        req = request(strategy="branch-and-bound")
        with observed_broker.session() as warm:
            served = [report_bytes(warm, req) for _ in range(3)]
        with observed_broker.session() as fresh:
            report_bytes(fresh, req)
            assert report_bytes(fresh, req) == served[2]


class TestWarmHitDoesNoWork:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_search_and_no_json(self, observed_broker, monkeypatch, strategy):
        req = request(strategy=strategy)
        with observed_broker.session() as session:
            serve(session, req)
            expected = serve(session, req)

            def boom(*args, **kwargs):
                raise AssertionError("a warm hit must not run this")

            monkeypatch.setitem(service._STRATEGY_FUNCTIONS, strategy, boom)
            monkeypatch.setattr(serialization, "system_to_json", boom)
            monkeypatch.setattr(api, "system_to_json", boom, raising=False)
            forget_aliases(session)
            warm = serve(session, req)
        assert warm == expected

    def test_memo_hit_keeps_its_evaluate_span(self, observed_broker):
        tracer = Tracer()
        finished = []
        tracer.observer = finished.append
        req = request(providers=("metalcloud",))
        with observed_broker.session(tracer=tracer) as session:
            for _ in range(3):
                forget_aliases(session)
                with tracer.span("request"):
                    serve(session, req)
        evaluates = [span for span in finished if span.name == "evaluate"]
        assert len(evaluates) == 3
        assert [span.attrs.get("memo") for span in evaluates] == [
            None,
            None,
            "hit",
        ]
        assert evaluates[2].attrs["provider"] == "metalcloud"


class TestNotMemoized:
    def test_first_service_is_not_memoized(self, observed_broker):
        with observed_broker.session() as session:
            serve(session, request())
            assert memos(session) == [{}, {}, {}]
            assert session.engine_cache.stats.replays == 0

    def test_serve_that_combines_new_terms_is_not_memoized(
        self, observed_broker
    ):
        with observed_broker.session() as session:
            serve(session, request(strategy="pruned"))
            sweep = serve(session, request(strategy="brute-force"))
            for section in sweep.providers:
                assert section.engine_stats["incremental_combines"] > 0
            for memo in memos(session):
                assert "brute-force" not in memo
            # Its repeat is a pure replay, and is memoized.
            serve(session, request(strategy="brute-force"))
            for memo in memos(session):
                assert list(memo) == ["brute-force"]

    def test_memo_leaves_with_its_entry(self, observed_broker):
        first = request(providers=("metalcloud",))
        second = three_tier_request(
            Contract.linear(99.0, 100.0), providers=("metalcloud",)
        )
        with observed_broker.session(cache_capacity=1) as session:
            for _ in range(2):
                serve(session, first)
            serve(session, second)  # evicts first's entry and memo
            serve(session, first)  # a rebuilt entry: first service
            serve(session, first)
            stats = session.engine_cache.stats
            assert stats.evictions == 2
            assert stats.replays == 0


class TestInputChangesMiss:
    """Each change of what the key holds misses, and serves the same
    report a fresh session computes from the same data."""

    @staticmethod
    def _warm(session, req) -> None:
        for _ in range(3):
            serve(session, req)
        assert session.engine_cache.stats.replays == 1

    @staticmethod
    def _assert_miss_matches_fresh(broker, session, req) -> None:
        misses = session.engine_cache.stats.misses
        replays = session.engine_cache.stats.replays
        served = serve(session, req)
        assert session.engine_cache.stats.misses == misses + 1
        assert session.engine_cache.stats.replays == replays
        with broker.session() as fresh:
            expected = fresh.recommend(req)
        assert without_engine_stats(served) == without_engine_stats(expected)

    def test_record_failure_in_place(self):
        broker = one_provider_broker()
        req = request()
        with broker.session() as session:
            self._warm(session, req)
            broker.telemetry.record_failure("metalcloud", "vm")
            self._assert_miss_matches_fresh(broker, session, req)

    def test_observe_provider_in_place(self):
        broker = one_provider_broker()
        req = request()
        with broker.session() as session:
            self._warm(session, req)
            broker.observe_provider("metalcloud", years=1.0, seed=9)
            self._assert_miss_matches_fresh(broker, session, req)

    def test_adopt_of_another_store(self):
        broker = one_provider_broker()
        req = request()
        with broker.session() as session:
            self._warm(session, req)
            broker.telemetry.adopt(one_provider_broker(seed=6).telemetry)
            self._assert_miss_matches_fresh(broker, session, req)

    def test_another_rate_card(self):
        broker = one_provider_broker()
        req = request()
        with broker.session() as session:
            self._warm(session, req)
            base = broker.provider("metalcloud")
            card = base.rate_card
            broker.providers["metalcloud"] = CloudProvider(
                name=base.name,
                regions=base.regions,
                rate_card=dataclasses.replace(
                    card,
                    ha_addons={**card.ha_addons, "raid-controller": 99.0},
                ),
                reliability=base.reliability,
            )
            self._assert_miss_matches_fresh(broker, session, req)

    def test_rate_card_price_changed_in_place(self):
        broker = one_provider_broker()
        req = request()
        with broker.session() as session:
            self._warm(session, req)
            addons = broker.provider("metalcloud").rate_card.ha_addons
            addons["raid-controller"] = addons["raid-controller"] + 25.0
            self._assert_miss_matches_fresh(broker, session, req)
