"""Engines bound to one shared, contract-free evaluation model.

An :class:`~repro.optimizer.engine.EvaluationModel` holds everything a
candidate's Eq. 1-5 values need except the contract; engines bind it
to a contract.  These tests pin what sharing promises: an engine on a
shared model answers exactly what a standalone engine answers (payload
bits, stats, result-cache keys) whether the model's table is cold or
warm and whether the engine's own cache answers; the one-pass sweep
counts exactly what the per-candidate ``payload`` walk counts; a
session builds one model per system however many contracts it serves,
splits models on every input but the contract and keeps them bounded;
and engines on different threads may share one model.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers, metalcloud
from repro.cost.rates import LaborRate
from repro.errors import OptimizerError, ValidationError
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import EvaluationEngine, EvaluationModel
from repro.optimizer.pruned import pruned_optimize
from repro.server import ServerClient, start_in_thread
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    PenaltyClause,
    ServiceCreditPenalty,
    TieredPenalty,
)
from repro.sla.sla import UptimeSLA
from repro.workloads.generators import random_problem


@dataclass
class QuadraticPenalty(PenaltyClause):
    """A clause outside the built-in shapes, and a mutable one."""

    rate: float

    def monthly_penalty(self, slippage_hours: float) -> float:
        self._check_slippage(slippage_hours)
        return self.rate * slippage_hours * slippage_hours

    def describe(self) -> str:
        return f"${self.rate:g}/hour^2"


CLAUSES = (
    NoPenalty(),
    LinearPenalty(250.0),
    # Owes -0.0 at 0 slippage: pricing must keep the clause's own bits.
    LinearPenalty(-0.0),
    TieredPenalty(((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0))),
    CappedPenalty(LinearPenalty(100.0), monthly_cap=400.0),
    ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25))),
    QuadraticPenalty(40.0),
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


def assert_same_engine_state(shared, standalone) -> None:
    assert shared.stats == standalone.stats
    assert shared._results.keys() == standalone._results.keys()
    for indices, payload in shared._results.items():
        assert bits(payload) == bits(standalone._results[indices])


def per_candidate_sweep(engine, *, keep_options: bool):
    """A brute-force sweep as one ``payload`` call and fold per candidate."""
    accumulator = engine.accumulator("brute-force", keep_options=keep_options)
    for option_id, indices in enumerate(
        engine.space.candidates_in_paper_order(), start=1
    ):
        accumulator.fold(option_id, indices, engine.payload(indices))
    return accumulator.finish()


class TestSharedEqualsStandalone:
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
    def test_cold_warm_and_repeated_states(
        self, seed, clusters, first, second, targets, strategy, keep_options
    ):
        base = random_problem(seed, clusters=clusters, choices_per_layer=3)
        search = STRATEGIES[strategy]
        model = EvaluationModel.for_problem(base, table={})
        # Cold: the model's table is empty.  Warm: a second contract
        # prices what the first admitted.  Repeated: the second
        # engine's own result cache answers a repeated search.
        for target, clause, repeats in (
            (targets[0], CLAUSES[first], 1),
            (targets[1], CLAUSES[second], 2),
        ):
            problem = with_contract(base, target, clause)
            shared = EvaluationEngine(problem, model=model)
            standalone = EvaluationEngine(problem)
            assert shared.model_table is model.table
            assert standalone.model is not model
            for _ in range(repeats):
                got = search(problem, engine=shared, keep_options=keep_options)
                want = search(
                    problem, engine=standalone, keep_options=keep_options
                )
                assert signature(got) == signature(want)
                assert_same_engine_state(shared, standalone)
        assert model.table

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        clause=st.sampled_from(range(len(CLAUSES))),
        target=st.floats(min_value=90.0, max_value=99.999),
        keep_options=st.booleans(),
        cache=st.booleans(),
        tabled=st.booleans(),
    )
    def test_one_pass_sweep_equals_per_candidate_walk(
        self, seed, clause, target, keep_options, cache, tabled
    ):
        """Bulk-counted stats and the folded result match the walk's."""
        problem = with_contract(
            random_problem(seed, clusters=3, choices_per_layer=3),
            target,
            CLAUSES[clause],
        )

        def engine() -> EvaluationEngine:
            model = EvaluationModel.for_problem(
                problem, table={} if tabled else None
            )
            return EvaluationEngine(problem, cache=cache, model=model)

        swept, walked = engine(), engine()
        for _ in range(2):  # cold, then from the caches the first filled
            got = swept.sweep(keep_options=keep_options)
            want = per_candidate_sweep(walked, keep_options=keep_options)
            assert signature(got) == signature(want)
            assert swept.stats == walked.stats
        assert swept._results.keys() == walked._results.keys()
        assert (swept.model_table is None) is (not tabled)
        if tabled:
            assert swept.model_table.keys() == walked.model_table.keys()

    def test_model_holds_no_contract_cache_or_engine(self):
        problem = random_problem(3, clusters=3, choices_per_layer=3)
        model = EvaluationModel.for_problem(problem, table={})
        engine = EvaluationEngine(problem, model=model)
        brute_force_optimize(problem, engine=engine)
        held = vars(model).values()
        assert not any(
            value is engine
            or value is engine._results
            or value is problem.contract
            or isinstance(value, (EvaluationEngine, Contract))
            for value in held
        )

    def test_model_for_another_labor_rate_is_refused(self):
        problem = random_problem(5, clusters=3)
        model = EvaluationModel.for_problem(problem)
        other = dataclasses.replace(problem, labor_rate=LaborRate(1.0))
        with pytest.raises(OptimizerError, match="labor rate"):
            EvaluationEngine(other, model=model)


class TestPricing:
    @settings(max_examples=200, deadline=None)
    @given(
        target=st.floats(min_value=50.0, max_value=100.0),
        uptime=st.floats(min_value=0.0, max_value=1.0),
        clause=st.sampled_from(range(len(CLAUSES))),
        exact=st.booleans(),
    )
    def test_pricing_equals_the_contract_methods(
        self, target, uptime, clause, exact
    ):
        contract = Contract(sla=UptimeSLA(target), penalty=CLAUSES[clause])
        if exact:  # the SLA boundary itself
            uptime = contract.sla.target_fraction
        slippage, penalty, meets = contract.pricing()(uptime)
        assert bits((slippage, penalty)) == bits(
            (
                contract.expected_slippage_hours(uptime),
                contract.expected_monthly_penalty(uptime),
            )
        )
        assert meets is contract.sla.is_met_by(uptime)

    @pytest.mark.parametrize("uptime", [-0.1, 1.5, float("nan")])
    def test_pricing_rejects_what_the_contract_rejects(self, uptime):
        contract = Contract.linear(99.0, 100.0)
        price = contract.pricing()
        with pytest.raises(ValidationError, match="uptime_probability"):
            price(uptime)
        with pytest.raises(ValidationError, match="uptime_probability"):
            contract.expected_slippage_hours(uptime)


def count_profile_builds(monkeypatch) -> list:
    built = []
    precompute = EvaluationModel._precompute_profiles

    def counted(model):
        built.append(model)
        return precompute(model)

    monkeypatch.setattr(EvaluationModel, "_precompute_profiles", counted)
    return built


@pytest.fixture(scope="module")
def observed_broker() -> BrokerService:
    broker = BrokerService(all_providers())
    broker.observe_all(years=1.0, seed=13)
    return broker


class TestSessionModels:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_contracts_on_one_provider_build_profiles_once(
        self, observed_broker, monkeypatch, strategy
    ):
        built = count_profile_builds(monkeypatch)
        contracts = [
            Contract.linear(97.0 + index / 4, 100.0 + 50.0 * index)
            for index in range(5)
        ]
        with observed_broker.session(cache_capacity=8) as session:
            for contract in contracts:
                session.recommend(
                    three_tier_request(
                        contract, providers=("metalcloud",), strategy=strategy
                    )
                )
            engines = session.engine_cache.engines()
            metrics = session.metrics()
        assert len(built) == 1
        assert len(engines) == len(contracts)
        assert all(engine.model is built[0] for engine in engines)
        assert metrics["models_cached"] == 1
        # Each engine still reports the n*k precompute it stands on.
        assert metrics["cluster_term_computations"] == (
            len(contracts) * built[0].term_count
        )

    def test_shared_reports_equal_standalone_engines(self, observed_broker):
        with observed_broker.session(cache_capacity=8) as session:
            results = [
                session.recommend(
                    three_tier_request(
                        Contract.linear(target, 200.0),
                        providers=("metalcloud",),
                        strategy="brute-force",
                    )
                ).recommendations[0].result
                for target in (97.5, 98.5, 99.5, 99.9)
            ]
            engines = session.engine_cache.engines()
        for result, engine in zip(results, engines):
            standalone = EvaluationEngine(engine.problem)
            want = brute_force_optimize(engine.problem, engine=standalone)
            assert signature(result) == signature(want)

    def test_labor_rates_zero_and_negative_zero_split_the_model(self):
        provider = metalcloud()
        provider.rate_card = dataclasses.replace(
            provider.rate_card, labor_rate_per_hour=0.0
        )
        broker = BrokerService((provider,))
        broker.observe_provider("metalcloud", years=1.0, seed=5)
        request = three_tier_request(
            Contract.linear(99.0, 100.0), strategy="brute-force"
        )
        with broker.session(cache_capacity=8) as session:
            session.recommend(request)
            provider.rate_card = dataclasses.replace(
                provider.rate_card, labor_rate_per_hour=-0.0
            )
            session.recommend(request)
            first, second = session.engine_cache.engines()
            assert session.metrics()["models_cached"] == 2
        assert first.model is not second.model
        assert first.model_table is not second.model_table
        signs = [
            struct.pack("<d", engine.model.labor_rate.dollars_per_hour)
            for engine in (first, second)
        ]
        assert signs[0] != signs[1]

    def test_failover_estimates_split_the_model(self):
        broker = BrokerService((metalcloud(),))
        broker.observe_provider("metalcloud", years=1.0, seed=5)
        request = three_tier_request(Contract.linear(99.0, 100.0))
        with broker.session(cache_capacity=8) as session:
            session.recommend(request)
            broker.telemetry.record_failover("metalcloud", "vm", 42.0)
            session.recommend(request)
            first, second = session.engine_cache.engines()
            assert session.metrics()["models_cached"] == 2
        assert first.model is not second.model
        assert first.model_key() != second.model_key()

    def test_model_lru_is_bounded_by_the_cache_capacity(self, observed_broker):
        with observed_broker.session(cache_capacity=2) as session:
            session.recommend(three_tier_request(Contract.linear(99.0, 100.0)))
            metrics = session.metrics()
            assert metrics["models_cached"] == 2
            assert metrics["model_rows"] == sum(
                len(model.table)
                for model in session.engine_cache._models.values()
            )

    def test_metrics_report_models_and_rows(self, observed_broker):
        with observed_broker.session(cache_capacity=8) as session:
            assert session.metrics()["models_cached"] == 0
            assert session.metrics()["model_rows"] == 0
            for target in (98.0, 99.0):
                session.recommend(
                    three_tier_request(
                        Contract.linear(target, 100.0),
                        providers=("metalcloud",),
                        strategy="brute-force",
                    )
                )
            (engine, _) = session.engine_cache.engines()
            metrics = session.metrics()
            session.engine_cache.clear()
            cleared = session.metrics()
        assert metrics["models_cached"] == 1
        assert metrics["model_rows"] == engine.space.size
        assert cleared["models_cached"] == cleared["model_rows"] == 0


    def test_server_metrics_export_models_and_rows(self, observed_broker):
        request = three_tier_request(
            Contract.linear(98.0, 100.0),
            providers=("metalcloud",),
            strategy="brute-force",
        )
        with observed_broker.session() as session:
            session.recommend(request)
            want = session.metrics()
        with start_in_thread(observed_broker, workers=0) as handle:
            client = ServerClient(handle.host, handle.port)
            client.recommend(RecommendEnvelope(request))
            samples = client.metrics()
        assert want["model_rows"] > 0
        assert samples[("repro_models_cached", ())] == want["models_cached"]
        assert samples[("repro_model_rows", ())] == want["model_rows"]


class TestConcurrentModel:
    def test_two_threads_branch_and_bound_on_one_model(self):
        base = random_problem(29, clusters=4, choices_per_layer=3)
        problems = [
            with_contract(base, 99.0, CLAUSES[1]),
            with_contract(base, 99.9, CLAUSES[5]),
        ]
        expected = [
            signature(branch_and_bound_optimize(problem))
            for problem in problems
        ]
        failures: list[str] = []

        def serve(model, which: int, start: threading.Barrier) -> None:
            problem = problems[which]
            try:
                engine = EvaluationEngine(problem, model=model)
                start.wait(timeout=10.0)
                got = signature(
                    branch_and_bound_optimize(problem, engine=engine)
                )
            except Exception as exc:  # recorded: a thread's raise is lost
                failures.append(f"thread {which}: {exc!r}")
                return
            if got != expected[which]:
                failures.append(f"thread {which}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # A fresh model per round: both threads start on a space
            # whose paper-order ids are not yet indexed.
            for _ in range(60):
                model = EvaluationModel.for_problem(base, table={})
                start = threading.Barrier(2)
                threads = [
                    threading.Thread(target=serve, args=(model, which, start))
                    for which in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert failures == []

    def test_paper_order_is_built_once_and_reused(self):
        problem = random_problem(31, clusters=3, choices_per_layer=3)
        model = EvaluationModel.for_problem(problem, table={})
        first = EvaluationEngine(problem, model=model)
        second = EvaluationEngine(
            with_contract(problem, 99.9, CLAUSES[3]), model=model
        )
        first.sweep(keep_options=False)
        order = model.paper_order()
        second.sweep(keep_options=False)
        assert model.paper_order() is order
        assert list(order) == list(model.space.candidates_in_paper_order())
        # Table and result-cache keys are the memoized tuples themselves.
        table_keys = {key: key for key in model.table}
        result_keys = {key: key for key in second._results}
        assert all(
            table_keys[indices] is indices and result_keys[indices] is indices
            for indices in order
        )
