"""The engine's result cache: float payloads keyed by index tuples.

An engine caches each evaluated candidate's Eq. 1-5 values — one flat
tuple of floats and a bool — under the candidate's index tuple, and a
hit rebuilds a fresh lazy option from them.  These tests pin the three
things that design promises: cached payloads are invisible to the
cyclic garbage collector, a hit under any id is the full-topology
oracle bit for bit on every evaluation path, and a session that chains
searches over one cached engine serves the same bytes and counters.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.broker.api import EngineCache
from repro.broker.envelope import RecommendEnvelope, ReportEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.optimizer.advisor import advise_upgrades
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import evaluate_candidate
from repro.optimizer.engine import EvaluationEngine
from repro.optimizer.pruned import pruned_optimize
from repro.sla.contract import Contract
from repro.workloads.case_study import case_study_problem
from repro.workloads.generators import random_problem

#: Added to paper-order ids to evaluate the same candidate under a
#: second, distinct id.
ID_SHIFT = 10_000


def _problems():
    yield case_study_problem()
    yield random_problem(3, clusters=4, choices_per_layer=3)
    yield random_problem(7, clusters=3, choices_per_layer=2)


def _paper_pairs(engine):
    return list(enumerate(engine.space.candidates_in_paper_order(), start=1))


def _indices_of(space, names):
    return tuple(
        [technology.name for technology in space.choices_for(i)].index(name)
        for i, name in enumerate(names)
    )


def _assert_oracle(problem, space, option):
    """``option`` equals the full-topology evaluation, bit for bit."""
    indices = _indices_of(space, option.choice_names)
    oracle = evaluate_candidate(problem, space, option.option_id, indices)
    assert option.choice_names == oracle.choice_names
    assert option.meets_sla is oracle.meets_sla
    assert option.cluster_names == oracle.cluster_names
    assert [v.hex() for v in dataclasses.astuple(option.tco)] == [
        v.hex() for v in dataclasses.astuple(oracle.tco)
    ]
    assert option.availability == oracle.availability
    assert option.system == oracle.system


def _pruned_options(problem, engine):
    return pruned_optimize(problem, engine=engine).options


def _branch_and_bound_options(problem, engine):
    return branch_and_bound_optimize(problem, engine=engine).options


def _advisor_options(problem, engine):
    """Every option the advisor evaluates, from an all-last-choice start."""
    space = engine.space
    current = tuple(
        space.choices_for(i)[-1].name for i in range(space.cluster_count)
    )
    advice = advise_upgrades(problem, current, engine=engine)
    return (advice.current, *(move.option for move in advice.moves))


class TestPayloadsAreUntracked:
    @pytest.mark.parametrize("distilled", [False, True])
    def test_no_cached_value_is_gc_tracked(self, distilled):
        for problem in _problems():
            engine = EvaluationEngine(problem)
            if distilled:
                options = engine.sweep(keep_options=False).options
            else:
                options = list(engine.evaluate_all())
            pruned_optimize(problem, engine=engine)
            gc.collect()
            assert len(engine._results) == engine.space.size
            assert not any(map(gc.is_tracked, engine._results.values()))
            assert not any(map(gc.is_tracked, engine._results))
            # The options handed out are ordinary tracked objects; only
            # what the cache keeps is untracked.
            assert gc.is_tracked(options[0])

    def test_session_cached_engines_hold_no_tracked_payload(self):
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=5)
        cache = EngineCache()
        with broker.session(engine_cache=cache) as session:
            for strategy in ("brute-force", "pruned", "branch-and-bound"):
                session.recommend(three_tier_request(
                    Contract.linear(99.0, 250.0),
                    strategy=strategy,
                    extended_catalog=True,
                ))
        engines = cache.engines()
        assert engines
        gc.collect()
        for engine in engines:
            assert engine._results
            assert not any(map(gc.is_tracked, engine._results.values()))


class TestHitEqualsMiss:
    """The same candidate under two ids equals the oracle either way."""

    @pytest.mark.parametrize("shared_table", [False, True])
    def test_evaluate_many(self, shared_table):
        for problem in _problems():
            engine = EvaluationEngine(problem)
            if shared_table:
                # Misses are priced from rows another contract's engine
                # recombined, instead of recombined here.
                other = dataclasses.replace(
                    problem, contract=Contract.linear(99.5, 1234.0)
                )
                feeder = EvaluationEngine(other)
                feeder.model_table = engine.model_table = {}
                list(feeder.evaluate_all())
            pairs = _paper_pairs(engine)
            shifted = [(option_id + ID_SHIFT, ix) for option_id, ix in pairs]
            misses = list(engine.evaluate_many(shifted))
            assert engine.stats.incremental_combines == len(pairs)
            hits = list(engine.evaluate_many(pairs))
            assert engine.stats.cache_hits == len(pairs)
            assert [o.option_id for o in hits] == [i for i, _ in pairs]
            for miss, hit in zip(misses, hits):
                assert miss.option_id == hit.option_id + ID_SHIFT
                assert not hit.system_is_materialized
                _assert_oracle(problem, engine.space, miss)
                _assert_oracle(problem, engine.space, hit)

    @pytest.mark.parametrize(
        "search",
        [_pruned_options, _branch_and_bound_options, _advisor_options],
        ids=["pruned", "branch-and-bound", "advisor"],
    )
    def test_sequential_searches(self, search):
        for problem in _problems():
            cold = EvaluationEngine(problem)
            missed = search(problem, cold)
            assert cold.stats.cache_hits == 0
            primed = EvaluationEngine(problem)
            for option_id, indices in _paper_pairs(primed):
                primed.evaluate(option_id + ID_SHIFT, indices)
            before = primed.stats.snapshot()
            hit = search(problem, primed)
            assert primed.stats.incremental_combines == (
                before.incremental_combines
            )
            assert primed.stats.cache_hits - before.cache_hits == len(hit)
            assert [o.option_id for o in hit] == [o.option_id for o in missed]
            for option in (*missed, *hit):
                assert option.option_id <= ID_SHIFT
                _assert_oracle(problem, primed.space, option)


#: Per-strategy engine_stats of one metalcloud three-tier request served
#: brute force, then pruned, then branch-and-bound on one session:
#: later searches are pure cache hits.
_SEQUENCE_STATS = {
    False: (
        {"candidate_evaluations": 8, "cache_hits": 0,
         "incremental_combines": 8, "cluster_term_computations": 6},
        {"candidate_evaluations": 5, "cache_hits": 5,
         "incremental_combines": 0, "cluster_term_computations": 0},
        {"candidate_evaluations": 3, "cache_hits": 3,
         "incremental_combines": 0, "cluster_term_computations": 0},
    ),
    True: (
        {"candidate_evaluations": 48, "cache_hits": 0,
         "incremental_combines": 48, "cluster_term_computations": 11},
        {"candidate_evaluations": 15, "cache_hits": 15,
         "incremental_combines": 0, "cluster_term_computations": 0},
        {"candidate_evaluations": 5, "cache_hits": 5,
         "incremental_combines": 0, "cluster_term_computations": 0},
    ),
}


@pytest.fixture(scope="module")
def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=3.0, seed=23)
    return broker


def _without_engine_stats(envelope: ReportEnvelope) -> dict:
    payload = json.loads(envelope.to_json())
    for entry in payload["providers"]:
        del entry["engine_stats"]
    return payload


def _serve(session, request, wire: bool) -> ReportEnvelope:
    """A request's report, by the wire fold or from the full tables."""
    if wire:
        return session.recommend_envelope(RecommendEnvelope(request=request))
    return ReportEnvelope.from_report(session.recommend(request))


class TestSearchSequenceOnOneSession:
    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("wire", [False, True], ids=["tables", "wire"])
    def test_bytes_and_stats_match_fresh_searches(
        self, observed_broker, wire, extended
    ):
        def request(strategy):
            return three_tier_request(
                Contract.linear(98.0, 100.0),
                providers=("metalcloud",),
                strategy=strategy,
                extended_catalog=extended,
            )

        strategies = ("brute-force", "pruned", "branch-and-bound")
        with observed_broker.session(engine_cache=EngineCache()) as session:
            chained = [_serve(session, request(s), wire) for s in strategies]
        for strategy, report, stats in zip(
            strategies, chained, _SEQUENCE_STATS[extended]
        ):
            (provider,) = report.providers
            assert provider.engine_stats == stats
            with observed_broker.session(engine_cache=EngineCache()) as fresh:
                alone = ReportEnvelope.from_report(
                    fresh.recommend(request(strategy))
                )
            assert _without_engine_stats(report) == _without_engine_stats(alone)
