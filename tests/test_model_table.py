"""The shared model table: contract-free rows, priced per contract.

An engine bound to a :data:`~repro.optimizer.engine.ModelTable` prices
a result-cache miss from the table's row (slippage, penalty and SLA
verdict only) instead of recombining the candidate's terms.  These
tests pin what that promises: priced payloads are the recombined ones
bit for bit on every penalty shape and strategy, whether the table is
cold or warm and whether the engine's own result cache answers; tables
are shared only under equal model keys and stay bounded; rows are
invisible to the cyclic collector; concurrent pricing through one
table stays correct.  The pruned search's whole-subset skip is pinned
against the per-candidate walk it replaces.
"""

from __future__ import annotations

import dataclasses
import gc
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.api import EngineCache
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.cost.rates import LaborRate
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import EvaluationEngine, payload_meets_sla
from repro.optimizer import pruned as pruned_module
from repro.optimizer.pruned import _extends_covered, pruned_optimize
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    ServiceCreditPenalty,
    TieredPenalty,
)
from repro.sla.sla import UptimeSLA
from repro.workloads.generators import random_problem

CLAUSES = (
    NoPenalty(),
    LinearPenalty(250.0),
    TieredPenalty(((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0))),
    CappedPenalty(LinearPenalty(100.0), monthly_cap=400.0),
    ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25))),
)

STRATEGIES = {
    "pruned": pruned_optimize,
    "brute-force": brute_force_optimize,
    "branch-and-bound": branch_and_bound_optimize,
}


def with_contract(problem, target: float, clause):
    return dataclasses.replace(
        problem, contract=Contract(sla=UptimeSLA(target), penalty=clause)
    )


def bits(payload) -> tuple:
    """A payload with every float as its IEEE-754 bits."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else value
        for value in payload
    )


def contract_free(payload) -> tuple:
    """A payload without its slippage, penalty and SLA verdict."""
    return payload[:2] + payload[3:5] + payload[6:8] + payload[9:]


def tabled(problem, table) -> EvaluationEngine:
    engine = EvaluationEngine(problem)
    engine.model_table = table
    return engine


def signature(result) -> tuple:
    """A result's counts and every option's id, names and bits."""
    options = tuple(
        (
            option.option_id,
            option.choice_names,
            bits((*dataclasses.astuple(option.tco), option.meets_sla)),
        )
        for option in result.options
    )
    return result.evaluations, result.pruned, options


class TestPricedEqualsRecombined:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        clusters=st.integers(min_value=2, max_value=4),
        first=st.sampled_from(range(len(CLAUSES))),
        second=st.sampled_from(range(len(CLAUSES))),
        targets=st.tuples(
            st.floats(min_value=90.0, max_value=99.999),
            st.floats(min_value=90.0, max_value=99.999),
        ),
        strategy=st.sampled_from(sorted(STRATEGIES)),
        keep_options=st.booleans(),
    )
    def test_cold_warm_and_memo_states(
        self, seed, clusters, first, second, targets, strategy, keep_options
    ):
        base = random_problem(seed, clusters=clusters, choices_per_layer=3)
        search = STRATEGIES[strategy]
        table: dict = {}
        # Cold: an empty table.  Warm: a second contract prices what
        # the first admitted.  Memo: the second engine's own result
        # cache answers a repeated search.
        for target, clause, repeats in (
            (targets[0], CLAUSES[first], 1),
            (targets[1], CLAUSES[second], 2),
        ):
            problem = with_contract(base, target, clause)
            engine = tabled(problem, table)
            plain = EvaluationEngine(problem)
            assert engine.model_key() == plain.model_key()
            for _ in range(repeats):
                got = search(problem, engine=engine, keep_options=keep_options)
                want = search(problem, engine=plain, keep_options=keep_options)
                assert signature(got) == signature(want)
                assert engine.stats == plain.stats
            assert engine._results.keys() == plain._results.keys()
            for indices, payload in engine._results.items():
                assert bits(payload) == bits(plain._results[indices])
        assert table
        reference = EvaluationEngine(base)
        for indices, row in table.items():
            assert bits(row) == bits(contract_free(reference._payload(indices)))

    def test_warm_table_prices_instead_of_recombining(self):
        base = random_problem(7, clusters=4, choices_per_layer=3)
        table: dict = {}
        first = tabled(with_contract(base, 99.0, CLAUSES[1]), table)
        brute_force_optimize(first.problem, engine=first)
        rows = dict(table)
        assert len(rows) == first.space.size
        second = tabled(with_contract(base, 99.9, CLAUSES[2]), table)
        second._factor_rows = ()  # a recombination would now raise
        brute_force_optimize(second.problem, engine=second)
        assert second.stats.incremental_combines == second.space.size
        assert table == rows and all(
            table[key] is rows[key] for key in rows
        )


class TestTableKeys:
    def test_contracts_share_and_labor_rates_split(self):
        base = random_problem(11, clusters=3, choices_per_layer=3)
        keys = {
            EvaluationEngine(with_contract(base, t, c)).model_key()
            for t in (95.0, 99.5)
            for c in CLAUSES
        }
        assert len(keys) == 1
        labor = [
            EvaluationEngine(
                dataclasses.replace(base, labor_rate=LaborRate(rate))
            ).model_key()
            for rate in (30.0, 31.0, 0.0, -0.0)
        ]
        # 0.0 == -0.0, yet their labor costs differ in sign bit.
        assert len(set(labor)) == 4

    def test_failover_estimates_split_tables_in_a_session(self):
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=5)
        request = three_tier_request(
            Contract.linear(99.0, 100.0),
            providers=("metalcloud",),
            strategy="brute-force",
        )
        other = dataclasses.replace(
            request, contract=Contract.linear(99.5, 300.0)
        )
        with broker.session(cache_capacity=8) as session:
            session.recommend(request)
            session.recommend(other)
            cache = session.engine_cache
            first, second = cache.engines()
            assert first.model_table is second.model_table
            assert len(cache._tables) == 1
            broker.telemetry.record_failover("metalcloud", "vm", 42.0)
            session.recommend(request)
            third = cache.engines()[-1]
            assert third.model_key() != first.model_key()
            assert third.model_table is not first.model_table
            assert len(cache._tables) == 2

    def test_table_lru_is_bounded(self):
        cache = EngineCache(capacity=2)
        tables = [cache.model_table(("key", n)) for n in range(3)]
        assert len(cache._tables) == 2
        assert cache.model_table(("key", 2)) is tables[2]
        assert cache.model_table(("key", 1)) is tables[1]
        assert cache.model_table(("key", 0)) is not tables[0]
        assert list(cache._tables) == [("key", 1), ("key", 0)]
        cache.clear()
        assert not cache._tables

    def test_engines_outside_a_cache_have_no_table(self):
        engine = EvaluationEngine(random_problem(3))
        brute_force_optimize(engine.problem, engine=engine)
        assert engine.model_table is None


class TestCollector:
    def test_rows_untracked_after_one_collection(self):
        broker = BrokerService(all_providers())
        broker.observe_all(years=1.0, seed=9)
        with broker.session(cache_capacity=4) as session:
            for target in (98.0, 99.0, 99.9):
                session.recommend(
                    three_tier_request(
                        Contract.linear(target, 150.0),
                        strategy="brute-force",
                    )
                )
            tables = list(session.engine_cache._tables.values())
            gc.collect()
            rows = [row for table in tables for row in table.values()]
            assert rows
            assert not any(gc.is_tracked(row) for row in rows)


class TestConcurrentPricing:
    def test_two_threads_share_one_table(self):
        base = random_problem(21, clusters=4, choices_per_layer=3)
        problems = [
            with_contract(base, 99.0, CLAUSES[1]),
            with_contract(base, 99.9, CLAUSES[2]),
        ]
        expected = [
            signature(
                brute_force_optimize(problem, engine=EvaluationEngine(problem))
            )
            for problem in problems
        ]
        table: dict = {}
        failures: list[str] = []

        def serve(which: int) -> None:
            problem = problems[which]
            for number in range(12):
                engine = tabled(problem, table)
                got = signature(brute_force_optimize(problem, engine=engine))
                if got != expected[which]:
                    failures.append(f"thread {which} round {number}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=serve, args=(which,))
                for which in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(table) == EvaluationEngine(base).space.size


def per_candidate_pruned(problem, engine):
    """The pruned walk one candidate at a time, as it was written first."""
    evaluated, covered, pruned = [], set(), 0
    for option_id, indices in enumerate(
        engine.space.candidates_in_paper_order(), start=1
    ):
        if covered and _extends_covered(indices, covered):
            covered.add(indices)
            pruned += 1
            continue
        evaluated.append(option_id)
        if payload_meets_sla(engine.payload(indices)):
            covered.add(indices)
    return evaluated, pruned


class TestSubsetSkip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        clusters=st.integers(min_value=1, max_value=5),
        choices=st.integers(min_value=1, max_value=3),
        quantile=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_ids_and_counts_as_per_candidate_walk(
        self, seed, clusters, choices, quantile
    ):
        base = random_problem(seed, clusters=clusters, choices_per_layer=choices)
        # A target among the candidates' own uptimes, so that a subset
        # is often met by some of its candidates but not all.
        uptimes = sorted(
            option.tco.uptime_probability
            for option in brute_force_optimize(base).options
        )
        target = 100.0 * uptimes[round(quantile * (len(uptimes) - 1))]
        problem = with_contract(base, target, LinearPenalty(100.0))
        engine = EvaluationEngine(problem)
        result = pruned_optimize(problem, engine=engine)
        evaluated, pruned = per_candidate_pruned(
            problem, EvaluationEngine(problem)
        )
        assert [option.option_id for option in result.options] == evaluated
        assert result.pruned == pruned
        assert result.evaluations == len(evaluated)
        assert engine.stats.candidate_evaluations == len(evaluated)
        assert result.evaluations + result.pruned == engine.space.size

    def test_met_bare_system_prunes_every_subset(self, monkeypatch):
        problem = with_contract(
            random_problem(4, clusters=4, choices_per_layer=3),
            1.0,
            LinearPenalty(100.0),
        )
        probes = []
        monkeypatch.setattr(
            pruned_module,
            "_extends_covered",
            lambda indices, covered: probes.append(indices) or True,
        )
        result = pruned_optimize(problem)
        assert result.evaluations == 1
        assert result.pruned == result.space_size - 1
        # Whole subsets are skipped: no candidate is probed on its own.
        assert probes == []

    def test_paper_order_built_from_subsets(self):
        space = random_problem(2, clusters=4, choices_per_layer=3).space()
        subsets = list(space.subsets_in_paper_order())
        assert subsets[0] == ((), 1)
        flattened = [
            indices
            for subset, _ in subsets
            for indices in space.subset_candidates(subset)
        ]
        assert flattened == list(space.candidates_in_paper_order())
        assert sum(width for _, width in subsets) == space.size
        for subset, width in subsets:
            assert len(list(space.subset_candidates(subset))) == width


@pytest.mark.parametrize("keep_options", [False, True])
def test_sweeps_fill_the_table(keep_options):
    """Every sweep runs the scalar kernel, which feeds the table."""
    base = random_problem(17, clusters=3, choices_per_layer=3)
    table: dict = {}
    engine = tabled(with_contract(base, 99.0, CLAUSES[1]), table)
    engine.sweep(keep_options=keep_options)
    assert len(table) == engine.space.size
