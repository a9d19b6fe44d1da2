"""The warm path: a memoized request answered with no key derivation.

:meth:`BrokerSession.replay_envelope` finds each provider's cache entry
through a warm alias keyed by (provider, request, rate card, telemetry
store, store generation, confidence threshold) and returns the memoized
report sections.  These tests pin that it gives exactly the slow path's
bytes, that it never blocks, that telemetry and price changes miss, that
it counts hits and replays as the slow path does, and that its alias map
stays bounded and never keeps an evicted engine alive.  The server half
(the inline answer, its counter and its trace) closes the file.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.broker import api
from repro.broker.api import EngineCache, _WarmKey
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.events import ResourceEvent, ResourceEventKind
from repro.cloud.providers import all_providers, metalcloud
from repro.errors import UnknownNameError
from repro.obs.trace import Tracer
from repro.server import ServerClient, start_in_thread
from repro.server.ingest import ExposureRecord, ShardedIngestor
from repro.sla.contract import Contract

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


def envelope(contract: Contract | None = None, **kwargs) -> RecommendEnvelope:
    request = three_tier_request(contract or Contract.linear(98.0, 100.0), **kwargs)
    return RecommendEnvelope(request, request_id="warm-1")


def slow_bytes(session, env: RecommendEnvelope) -> str:
    """The executor path's bytes: a full recommend, distilled."""
    return ReportEnvelope.from_report(
        session.recommend(env.request), request_id=env.request_id
    ).to_json()


def warm(session, env: RecommendEnvelope) -> None:
    """Serve twice: the first builds the engines, the second memoizes."""
    for _ in range(2):
        session.recommend_envelope(env)


def counters(session) -> tuple[int, int, int]:
    stats = session.engine_cache.stats
    return stats.hits, stats.misses, stats.replays


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fast_path_equals_the_executor_path(
        self, observed_broker, strategy
    ):
        env = envelope(strategy=strategy)
        with observed_broker.session() as session:
            session.recommend(env.request)
            expected = slow_bytes(session, env)  # a pure replay
            session.recommend_envelope(env)  # a pure replay: memoizes
            replayed = session.replay_envelope(env)
            assert replayed is not None
        assert replayed.to_json() == expected

    def test_fast_path_equals_a_fresh_session(self, observed_broker):
        env = envelope(strategy="branch-and-bound")
        with observed_broker.session() as session:
            warm(session, env)
            replayed = session.replay_envelope(env)
        with observed_broker.session() as fresh:
            fresh.recommend_envelope(env)
            expected = fresh.recommend_envelope(env)
        assert replayed.to_json() == expected.to_json()

    def test_request_id_and_metadata(self, observed_broker):
        env = envelope()
        with observed_broker.session() as session:
            warm(session, env)
            other = RecommendEnvelope(
                three_tier_request(
                    Contract.linear(98.0, 100.0), metadata={"tenant": "b"}
                ),
                request_id="warm-2",
            )
            report = session.replay_envelope(other)
        assert report is not None  # metadata never reaches the report
        assert report.request_id == "warm-2"


class TestCounting:
    def test_three_identical_recommends(self, observed_broker):
        env = envelope()
        with observed_broker.session() as session:
            for _ in range(3):
                session.recommend_envelope(env)
            # First: 3 misses.  Second: 3 hits that replay and fill the
            # memo.  Third: 3 hits answered by replay_envelope.
            assert counters(session) == (6, 3, 3)

    def test_a_miss_counts_nothing(self, observed_broker):
        env = envelope()
        with observed_broker.session() as session:
            assert session.replay_envelope(env) is None
            session.recommend_envelope(env)
            assert session.replay_envelope(env) is None  # no memo yet
            assert counters(session) == (0, 3, 0)

    def test_partial_memo_answers_nothing(self, observed_broker):
        """All providers or none: a half-warm request takes the slow path."""
        with observed_broker.session() as session:
            warm(session, envelope(providers=("metalcloud",)))
            env = envelope(providers=("metalcloud", "stratus"))
            before = counters(session)
            assert session.replay_envelope(env) is None
            assert counters(session) == before

    def test_unknown_provider_falls_through_to_the_error(self, observed_broker):
        env = envelope(providers=("nimbus",))
        with observed_broker.session() as session:
            assert session.replay_envelope(env) is None
            with pytest.raises(UnknownNameError):
                session.recommend_envelope(env)

    def test_replay_refreshes_lru_order(self):
        broker = one_provider_broker()
        first = envelope(providers=("metalcloud",))
        second = envelope(Contract.linear(99.0, 100.0), providers=("metalcloud",))
        with broker.session(cache_capacity=2) as session:
            warm(session, first)
            warm(session, second)
            assert session.replay_envelope(first) is not None
            # first is now the most recent: a third engine evicts second.
            session.recommend_envelope(
                envelope(Contract.linear(97.0, 100.0), providers=("metalcloud",))
            )
            assert session.replay_envelope(first) is not None
            assert session.replay_envelope(second) is None


def _count_rate_card_keys(monkeypatch) -> list:
    """Record every rate-card key the broker derives, by card."""
    calls = []
    derive = api._rate_card_key

    def counted(card):
        calls.append(card)
        return derive(card)

    monkeypatch.setattr(api, "_rate_card_key", counted)
    return calls


class TestKeyDerivation:
    """Each provider's warm key, and the rate-card key inside it, is
    derived once per request, whichever path serves it."""

    @pytest.mark.parametrize(
        "earlier, serve",
        [
            (0, lambda session, env: session.recommend_envelope(env)),
            (1, lambda session, env: session.recommend_envelope(env)),
            (2, lambda session, env: session.recommend_envelope(env)),
            (0, lambda session, env: session.recommend(env.request)),
            (
                0,
                lambda session, env: session.result_envelope(
                    session.submit(env, wire=True)
                ),
            ),
        ],
        ids=["cold", "warm-unmemoized", "memoized", "full-tables", "wire-job"],
    )
    def test_one_rate_card_key_per_provider(
        self, observed_broker, monkeypatch, earlier, serve
    ):
        env = envelope(Contract.linear(97.5, 130.0))
        with observed_broker.session() as session:
            for _ in range(earlier):
                session.recommend_envelope(env)
            calls = _count_rate_card_keys(monkeypatch)
            serve(session, env)
        cards = [
            observed_broker.provider(name).rate_card
            for name in sorted(observed_broker.providers)
        ]
        assert len(calls) == len(cards)
        assert all(
            sum(call is card for call in calls) == 1 for card in cards
        )

    def test_alias_keeps_the_generation_read_before_the_estimates(
        self, monkeypatch
    ):
        """A mutation racing a cold serve files its state under the
        older generation, so the next request misses the alias."""
        broker = one_provider_broker()
        env = envelope()
        estimate = broker.reliability_estimates
        raced = []

        def racing_estimates(request, provider_name):
            if not raced:
                raced.append(broker.telemetry.generation)
                broker.telemetry.record_failure("metalcloud", "vm")
            return estimate(request, provider_name)

        monkeypatch.setattr(broker, "reliability_estimates", racing_estimates)
        with broker.session() as session:
            session.recommend_envelope(env)
            (alias,) = session.engine_cache._aliases
            assert alias.fields[4] == raced[0] < broker.telemetry.generation
            session.recommend_envelope(env)  # derives keys again: a hit
            assert session.replay_envelope(env) is not None


class TestServerKeyDerivation:
    """The in-process server hands a failed inline replay's keys to the
    executor, so a memo miss derives them once, like the session."""

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    def test_one_rate_card_key_per_provider_per_request(
        self, monkeypatch, trace
    ):
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=23)
        env = envelope(Contract.linear(97.75, 140.0))
        with start_in_thread(broker, workers=0, trace=trace) as handle:
            client = ServerClient(handle.host, handle.port)
            calls = _count_rate_card_keys(monkeypatch)
            counts = []
            # Cold (builds engines), second (memoizes), third (inline).
            for _ in range(3):
                before = len(calls)
                client.recommend(env)
                counts.append(len(calls) - before)
        assert counts == [len(broker.providers)] * 3


class TestNeverBlocks:
    def test_held_entry_lock_returns_none_at_once(self, observed_broker):
        env = envelope()
        with observed_broker.session() as session:
            warm(session, env)
            entry = next(iter(session.engine_cache._entries.values()))
            before = counters(session)
            results = []
            with entry.lock:  # a search in progress on that engine
                worker = threading.Thread(
                    target=lambda: results.append(session.replay_envelope(env))
                )
                worker.start()
                worker.join(timeout=1.0)
                assert not worker.is_alive(), "replay_envelope blocked"
            assert results == [None]
            assert counters(session) == before
            assert session.replay_envelope(env) is not None  # lock released


def telemetry_records(provider: str = "metalcloud") -> list:
    event = ResourceEvent(
        time_minutes=1.0,
        provider=provider,
        component_kind="vm",
        resource_id="r-1",
        kind=ResourceEventKind.FAILURE,
        duration_minutes=0.0,
    )
    return [ExposureRecord(provider, "vm", 100, 1440.0), event]


class TestInvalidation:
    def test_flush_between_identical_requests(self):
        broker = one_provider_broker()
        env = envelope()
        with broker.session() as session, ShardedIngestor(
            broker.telemetry, num_shards=2
        ) as ingestor:
            warm(session, env)
            stale = session.replay_envelope(env)
            assert stale is not None
            ingestor.submit(telemetry_records())
            ingestor.flush()
            assert session.replay_envelope(env) is None
            misses = session.engine_cache.stats.misses
            fresh = session.recommend_envelope(env)
            assert session.engine_cache.stats.misses == misses + 1
            assert session.replay_envelope(env) is None  # first service
            session.recommend_envelope(env)  # a pure replay: re-memoized
            replayed = session.replay_envelope(env)
            assert replayed is not None
        assert fresh.to_json() != stale.to_json()
        with broker.session() as reference:
            reference.recommend_envelope(env)
            expected = reference.recommend_envelope(env)
        assert replayed.to_json() == expected.to_json()

    def test_unrelated_telemetry_misses_then_realiases(self):
        """A new generation with the same estimates: a slow-path hit."""
        broker = BrokerService(all_providers())
        broker.observe_all(years=2.0, seed=23)
        env = envelope(providers=("metalcloud",))
        with broker.session() as session:
            warm(session, env)
            broker.telemetry.record_failure("stratus", "vm")
            assert session.replay_envelope(env) is None
            hits, misses, _ = counters(session)
            session.recommend_envelope(env)  # same engine, memo hit
            assert counters(session)[:2] == (hits + 1, misses)
            assert session.replay_envelope(env) is not None

    def test_rate_card_price_changed_in_place_misses(self):
        broker = one_provider_broker()
        env = envelope()
        with broker.session() as session:
            warm(session, env)
            addons = broker.provider("metalcloud").rate_card.ha_addons
            addons["raid-controller"] = addons["raid-controller"] + 25.0
            assert session.replay_envelope(env) is None
            served = session.recommend_envelope(env)
        with broker.session() as fresh:
            expected = fresh.recommend_envelope(env)
        assert served.to_json() == expected.to_json()

    def test_another_store_misses(self):
        broker = one_provider_broker()
        env = envelope()
        with broker.session() as session:
            warm(session, env)
            broker.knowledge_base.telemetry = one_provider_broker(seed=5).telemetry
            assert session.replay_envelope(env) is None


class TestBoundedAliases:
    def test_evicted_engine_is_freed(self):
        broker = one_provider_broker()
        first = envelope(providers=("metalcloud",))
        with broker.session(cache_capacity=2) as session:
            warm(session, first)
            (entry,) = session.engine_cache._entries.values()
            engine = weakref.ref(entry.engine)
            del entry
            for index in range(3):
                session.recommend_envelope(
                    envelope(
                        Contract.linear(97.0 + index / 10, 100.0),
                        providers=("metalcloud",),
                    )
                )
                assert len(session.engine_cache._aliases) <= 2
            gc.collect()
            assert engine() is None
            assert session.replay_envelope(first) is None

    def test_eviction_drops_a_recent_alias(self):
        """An alias newer than its entry still leaves with the entry."""

        class Engine:
            pass

        cache = EngineCache(capacity=2)
        first = cache.entry(("k", 1), Engine)
        second = cache.entry(("k", 2), Engine)
        cache.alias(("warm", 2), second)
        cache.alias(("warm", 1), first)  # newest alias, oldest entry
        engine = weakref.ref(first.engine)
        del first
        cache.entry(("k", 3), Engine)  # evicts the first entry
        assert list(cache._aliases) == [("warm", 2)]
        gc.collect()
        assert engine() is None

    def test_replay_refreshes_its_alias(self):
        """Two stores with equal data share one engine under two aliases;
        the alias a replay used is the one the bound keeps."""
        cache = EngineCache(capacity=2)
        ours, theirs = one_provider_broker(), one_provider_broker()
        env = envelope()
        with ours.session(engine_cache=cache) as session, theirs.session(
            engine_cache=cache
        ) as other:
            warm(session, env)
            other.recommend_envelope(env)  # same engine, a second alias
            assert len(cache) == 1 and len(cache._aliases) == 2
            assert session.replay_envelope(env) is not None
            session.recommend_envelope(envelope(Contract.linear(99.0, 100.0)))
            assert session.replay_envelope(env) is not None
            assert other.replay_envelope(env) is None

    def test_moved_alias_survives_its_old_entrys_eviction(self):
        class Engine:
            pass

        cache = EngineCache(capacity=2)
        first = cache.entry(("k", 1), Engine)
        second = cache.entry(("k", 2), Engine)
        cache.alias(("warm",), first)
        cache.alias(("warm",), second)
        assert not first.aliases and second.aliases == {("warm",)}
        cache.entry(("k", 3), Engine)  # evicts the first entry
        assert cache._aliases == {("warm",): second}

    def test_alias_lru_unlinks_its_owner(self):
        class Engine:
            pass

        cache = EngineCache(capacity=2)
        entry = cache.entry(("k", 1), Engine)
        for number in range(3):
            cache.alias(("warm", number), entry)
        assert entry.aliases == {("warm", 1), ("warm", 2)}
        assert set(cache._aliases) == entry.aliases

    def test_warm_key_hashes_its_fields_once(self):
        hashed = []

        class Field:
            def __hash__(self):
                hashed.append(self)
                return 7

        key = _WarmKey(("provider", Field()))
        cache = EngineCache(capacity=2)
        entry = cache.entry(("k", 1), object)
        cache.alias(key, entry)
        assert cache.replay([key], "pruned") is None
        cache.entry(("k", 2), object)
        cache.entry(("k", 3), object)  # evicts the aliased entry
        assert not cache._aliases
        assert len(hashed) == 1

    def test_evicted_entry_gets_no_alias(self):
        class Engine:
            pass

        cache = EngineCache(capacity=1)
        first = cache.entry(("k", 1), Engine)
        cache.entry(("k", 2), Engine)
        cache.alias(("warm", 1), first)
        assert not cache._aliases

    def test_aliases_stay_bounded_across_generations(self):
        """One engine, a new generation per request: still <= capacity."""
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=3)
        env = envelope(providers=("metalcloud",))
        with broker.session(cache_capacity=3) as session:
            for _ in range(10):
                session.recommend_envelope(env)
                broker.telemetry.record_failure("stratus", "vm")
                assert len(session.engine_cache._aliases) <= 3
            assert len(session.engine_cache) == 1

    def test_clear_drops_aliases(self, observed_broker):
        env = envelope()
        with observed_broker.session() as session:
            warm(session, env)
            session.engine_cache.clear()
            assert session.replay_envelope(env) is None


class TestDirectTracing:
    def test_hit_records_one_replay_span(self, observed_broker):
        tracer = Tracer()
        finished = []
        tracer.observer = finished.append
        env = envelope()
        with observed_broker.session(tracer=tracer) as session:
            warm(session, env)
            finished.clear()
            with tracer.span("request"):
                assert session.recommend_envelope(env) is not None
        assert [span.name for span in finished] == ["replay", "request"]
        assert finished[0].attrs["providers"] == "3"


class TestInlineServer:
    """The in-process server answers memoized recommends on its loop."""

    @pytest.fixture(scope="class")
    def handle(self):
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=23)
        with start_in_thread(broker, workers=0, trace=True) as handle:
            yield handle

    @staticmethod
    def inline(client) -> float:
        return client.metrics()[("repro_recommend_inline_total", ())]

    def test_counter_rises_on_warm_hits_only(self, handle):
        client = ServerClient(handle.host, handle.port)
        env = envelope(Contract.linear(98.5, 120.0))
        start = self.inline(client)
        first = client.recommend(env).to_json()  # cold: builds engines
        assert self.inline(client) == start
        second = client.recommend(env).to_json()  # executor: memoizes
        assert self.inline(client) == start
        third = client.recommend(env).to_json()
        fourth = client.recommend(env).to_json()
        assert self.inline(client) == start + 2
        assert first != second  # the first serve built the terms
        assert second == third == fourth

    def test_warm_trace_is_attributed(self, handle):
        """parse, replay and serialize cover >= 90% of the root span."""
        client = ServerClient(handle.host, handle.port, trace=True)
        env = envelope(Contract.linear(98.25, 90.0))
        for _ in range(3):
            client.recommend(env)
        spans = client.trace_spans(client.last_trace_id)
        recorded = {span.span_id for span in spans}
        (root,) = [span for span in spans if span.parent_id not in recorded]
        assert root.name == "request"
        assert root.attrs["status"] == "done"
        children = [span for span in spans if span.parent_id == root.span_id]
        assert sorted(span.name for span in children) == [
            "parse",
            "replay",
            "serialize",
        ]
        for span in children:
            assert root.start <= span.start <= span.end <= root.end
        covered = sum(span.duration for span in children)
        assert covered >= 0.9 * root.duration


class TestConcurrentServing:
    def test_threads_share_aliases_and_counters(self):
        """Racing serves, evictions and new generations lose no update.

        Eight threads (more than cores) serve three hot contracts, and
        every seventh request one of three cold ones that overflow the
        cache, while another thread keeps publishing new generations of
        unchanged telemetry.  Every lookup is counted exactly once,
        every report matches the reference, and no alias outlives its
        entry.
        """
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=3)
        envs = [envelope(Contract.linear(97.0 + i / 4, 100.0)) for i in range(6)]
        hot, cold = envs[:3], envs[3:]
        with broker.session() as reference:
            expected = {}
            for env in envs:
                reference.recommend_envelope(env)
                expected[env.request.contract] = without_engine_stats(
                    reference.recommend_envelope(env)
                )
        rounds, workers = 60, 8
        failures: list[str] = []
        stop = threading.Event()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with broker.session(cache_capacity=10) as session:

                def serve(offset: int) -> None:
                    for number in range(rounds):
                        if number % 7 == 6:
                            env = cold[(offset + number) % len(cold)]
                        else:
                            env = hot[(offset + number) % len(hot)]
                        got = without_engine_stats(session.recommend_envelope(env))
                        if got != expected[env.request.contract]:
                            failures.append(f"worker {offset} round {number}")

                def republish() -> None:
                    while not stop.wait(0.02):
                        broker.telemetry.adopt(broker.telemetry.copy())

                bumper = threading.Thread(target=republish)
                threads = [
                    threading.Thread(target=serve, args=(offset,))
                    for offset in range(workers)
                ]
                bumper.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                stop.set()
                bumper.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not bumper.is_alive()
                cache = session.engine_cache
                stats = cache.stats
                assert stats.hits + stats.misses == rounds * workers * 3
                assert 0 < stats.replays <= stats.hits
                assert stats.evictions > 0
                assert len(cache._aliases) <= cache.capacity
                live = set(map(id, cache._entries.values()))
                assert all(id(entry) in live for entry in cache._aliases.values())
        finally:
            sys.setswitchinterval(previous)
        assert failures == []


def without_engine_stats(report: ReportEnvelope) -> dict:
    payload = report.to_dict()
    for entry in payload["providers"]:
        entry.pop("engine_stats")
    return payload
