"""The one evaluation path: the scalar kernel equals the oracle.

Every engine entry point — :meth:`EvaluationEngine.payload`,
``evaluate``, ``evaluate_many``/``evaluate_all`` and ``sweep`` — runs
one scalar kernel that recombines per-cluster factor rows or prices a
shared model-table row.  These tests pin it bit for bit against the
full-topology oracle (:func:`~repro.optimizer.brute_force.evaluate_candidate`):
per candidate over the named workload scenarios, randomized catalogs
and every penalty shape, and through all three strategies with their
pruning on.  They also pin what went with the retired vector backend:
the engine takes no backend knobs, and running the whole package never
loads numpy.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizerError
from repro.optimizer import engine as engine_module
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize, evaluate_candidate
from repro.optimizer.engine import (
    EvaluationEngine,
    payload_costs,
    payload_meets_sla,
)
from repro.optimizer.pruned import pruned_optimize
from repro.sla.contract import Contract
from repro.sla.penalty import (
    CappedPenalty,
    LinearPenalty,
    NoPenalty,
    ServiceCreditPenalty,
    TieredPenalty,
)
from repro.workloads.case_study import case_study_problem
from repro.workloads.generators import random_problem
from repro.workloads.scenarios import SCENARIOS

#: Named workload scenarios, plus the paper's case study.
WORKLOAD_PROBLEMS = [
    ("case-study", case_study_problem),
    *(
        (name, (lambda n: lambda: SCENARIOS[n].problem)(name))
        for name in sorted(SCENARIOS)
    ),
]

#: The five penalty shapes; tiered twice, with an open and a closed tail.
CLAUSES = {
    "none": NoPenalty(),
    "linear": LinearPenalty(950.0),
    "tiered-open": TieredPenalty(
        ((4.0, 500.0), (12.0, 900.0), (float("inf"), 1500.0))
    ),
    "tiered-closed": TieredPenalty(((2.0, 100.0),)),
    "capped": CappedPenalty(LinearPenalty(1200.0), monthly_cap=20000.0),
    "credits": ServiceCreditPenalty(
        250000.0, ((2.0, 0.05), (8.0, 0.15), (24.0, 0.4))
    ),
}

STRATEGIES = {
    "brute-force": brute_force_optimize,
    "pruned": pruned_optimize,
    "branch-and-bound": branch_and_bound_optimize,
}


def with_clause(problem, clause):
    return dataclasses.replace(
        problem, contract=Contract(sla=problem.contract.sla, penalty=clause)
    )


def paper_pairs(space):
    return list(enumerate(space.candidates_in_paper_order(), start=1))


def indices_of(space, names):
    return tuple(
        [technology.name for technology in space.choices_for(i)].index(name)
        for i, name in enumerate(names)
    )


def assert_oracle(problem, space, option):
    """``option`` equals the full-topology evaluation, bit for bit."""
    indices = indices_of(space, option.choice_names)
    oracle = evaluate_candidate(problem, space, option.option_id, indices)
    assert option.choice_names == oracle.choice_names
    assert option.meets_sla is oracle.meets_sla
    assert option.cluster_names == oracle.cluster_names
    assert [v.hex() for v in dataclasses.astuple(option.tco)] == [
        v.hex() for v in dataclasses.astuple(oracle.tco)
    ]
    assert option.availability == oracle.availability
    assert option.system == oracle.system


def assert_payload_oracle(problem, space, option_id, indices, payload):
    """A raw payload reads as the oracle's costs and SLA verdict."""
    oracle = evaluate_candidate(problem, space, option_id, indices)
    ha_cost, penalty = payload_costs(payload)
    assert ha_cost.hex() == oracle.tco.ha_cost.hex()
    assert penalty.hex() == oracle.tco.expected_penalty.hex()
    assert (ha_cost + penalty).hex() == oracle.tco.total.hex()
    assert payload_meets_sla(payload) is oracle.meets_sla


def table_fed(problem) -> EvaluationEngine:
    """An engine whose every miss prices a row another contract fed."""
    feeder = EvaluationEngine(
        dataclasses.replace(problem, contract=Contract.linear(99.99, 321.0))
    )
    engine = EvaluationEngine(problem)
    feeder.model_table = engine.model_table = {}
    list(feeder.evaluate_all())
    assert len(engine.model_table) == engine.space.size
    return engine


class TestPerCandidateOracle:
    @pytest.mark.parametrize("label, factory", WORKLOAD_PROBLEMS)
    def test_workload_scenarios(self, label, factory):
        problem = factory()
        engine = EvaluationEngine(problem)
        space = engine.space
        for option_id, indices in paper_pairs(space):
            assert_payload_oracle(
                problem, space, option_id, indices, engine.payload(indices)
            )
            # The second call is a result-cache hit.
            assert_oracle(problem, space, engine.evaluate(option_id, indices))
        assert engine.stats.cache_hits == space.size, label

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        clusters=st.integers(min_value=2, max_value=4),
        choices=st.integers(min_value=1, max_value=3),
    )
    def test_randomized_catalogs_and_contracts(self, seed, clusters, choices):
        problem = random_problem(
            seed, clusters=clusters, choices_per_layer=choices
        )
        engine = EvaluationEngine(problem)
        first = list(engine.evaluate_all())
        replay = list(engine.evaluate_all())
        for option in (*first, *replay):
            assert_oracle(problem, engine.space, option)
        assert engine.stats.cache_hits == engine.space.size

    @pytest.mark.parametrize("clause", CLAUSES.values(), ids=CLAUSES)
    def test_penalty_shapes(self, clause):
        problem = with_clause(
            random_problem(31, clusters=3, choices_per_layer=3), clause
        )
        recombined = EvaluationEngine(problem, cache=False)
        priced = table_fed(problem)
        space = recombined.space
        for engine in (recombined, priced):
            for option_id, indices in paper_pairs(space):
                option = engine.evaluate(option_id, indices)
                assert_oracle(problem, space, option)

    def test_int_valued_costs(self):
        # Specs built with int dollar amounts are legal; the kernel
        # must produce the oracle's floats (cluster_cost_terms coerces
        # at construction).
        from repro.catalog.raid import RAID1
        from repro.catalog.registry import TechnologyRegistry
        from repro.cost.rates import LaborRate
        from repro.optimizer.space import OptimizationProblem
        from repro.topology.builder import TopologyBuilder
        from repro.topology.node import NodeSpec

        registry = TechnologyRegistry()
        registry.register(RAID1(
            failover_minutes=1.0, monthly_controller_cost=30,
            monthly_labor_hours=2,
        ))
        volume = NodeSpec("volume", 0.015, 5.0, monthly_cost=170)
        system = (
            TopologyBuilder("int-costs")
            .storage("storage", volume, nodes=2)
            .build()
        )
        problem = OptimizationProblem(
            base_system=system,
            registry=registry,
            contract=Contract.linear(98.0, 100),
            labor_rate=LaborRate(30),
        )
        engine = EvaluationEngine(problem)
        for option in engine.evaluate_all():
            assert type(option.tco.ha_infra_cost) is float
            assert_oracle(problem, engine.space, option)

    def test_payloads_hold_plain_floats_and_one_bool(self):
        engine = EvaluationEngine(case_study_problem())
        for indices in engine.space.candidates_in_paper_order():
            payload = engine.payload(indices)
            kinds = [type(value) for value in payload]
            assert kinds.count(bool) == 1
            assert set(kinds) == {float, bool}


class TestStrategiesWithPruning:
    """Each strategy, pruning on, over every penalty shape: every option
    it evaluates is the oracle's, and its recommendations are the
    oracle table's."""

    @staticmethod
    def _oracle_recommendations(problem, space):
        table = [
            evaluate_candidate(problem, space, option_id, indices)
            for option_id, indices in paper_pairs(space)
        ]
        best = min(table, key=lambda o: (o.tco.total, o.option_id))
        lowest = min(
            table,
            key=lambda o: (o.tco.expected_penalty, o.tco.ha_cost, o.option_id),
        )
        return best, lowest

    @pytest.mark.parametrize("clause", CLAUSES.values(), ids=CLAUSES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_matches_oracle(self, strategy, clause):
        # A contract this catalog can meet, so both searches prune.
        problem = with_clause(
            random_problem(43, clusters=4, choices_per_layer=3), clause
        )
        optimize = STRATEGIES[strategy]
        engine = EvaluationEngine(problem)
        space = engine.space
        full = optimize(problem, engine=engine)
        distilled = optimize(
            problem, engine=EvaluationEngine(problem), keep_options=False
        )
        for option in full.options:
            assert_oracle(problem, space, option)
        best, lowest = self._oracle_recommendations(problem, space)
        for result in (full, distilled):
            assert result.evaluations + result.pruned <= space.size
            assert result.best.option_id == best.option_id
            assert result.best.tco.total.hex() == best.tco.total.hex()
        assert distilled.evaluations == full.evaluations
        assert distilled.pruned == full.pruned
        assert distilled.min_penalty_option.option_id == (
            full.min_penalty_option.option_id
        )
        if strategy == "brute-force":
            assert full.pruned == 0
            assert full.min_penalty_option.option_id == lowest.option_id
        else:
            assert full.pruned > 0


    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_table_priced_strategy_matches_oracle(self, strategy):
        problem = random_problem(43, clusters=4, choices_per_layer=3)
        engine = table_fed(problem)
        result = STRATEGIES[strategy](problem, engine=engine)
        for option in result.options:
            assert_oracle(problem, engine.space, option)
        best, _ = self._oracle_recommendations(problem, engine.space)
        assert result.best.option_id == best.option_id
        assert result.best.tco.total.hex() == best.tco.total.hex()


class TestSweep:
    @pytest.mark.parametrize("clause", CLAUSES.values(), ids=CLAUSES)
    def test_distilled_sweep_matches_the_full_table(self, clause):
        problem = with_clause(
            random_problem(48, clusters=3, choices_per_layer=3), clause
        )
        full = EvaluationEngine(problem).sweep(keep_options=True)
        distilled = EvaluationEngine(problem, cache=False).sweep(
            keep_options=False
        )
        assert distilled.evaluations == full.evaluations == full.space_size
        assert len(distilled.options) <= 2
        for pick in ("best", "min_penalty_option"):
            mine, theirs = getattr(distilled, pick), getattr(full, pick)
            assert mine.option_id == theirs.option_id
            assert mine.tco == theirs.tco

    def test_uncached_sweep_counts_every_candidate_as_a_combine(self):
        engine = EvaluationEngine(
            random_problem(51, clusters=3, choices_per_layer=3), cache=False
        )
        result = engine.sweep(keep_options=False)
        size = engine.space.size
        assert result.evaluations == size
        assert engine.stats.candidate_evaluations == size
        assert engine.stats.incremental_combines == size
        assert engine.stats.cache_hits == 0
        assert not engine._results

    def test_cached_sweep_admits_every_payload(self):
        engine = EvaluationEngine(
            random_problem(50, clusters=3, choices_per_layer=2)
        )
        first = engine.sweep(keep_options=False)
        assert engine.stats.incremental_combines == engine.space.size
        hits_before = engine.stats.cache_hits
        replay = engine.sweep(keep_options=False)
        assert [o.option_id for o in replay.options] == [
            o.option_id for o in first.options
        ]
        assert engine.stats.cache_hits - hits_before == engine.space.size


class TestEngineSurface:
    def test_engine_has_no_close_lifecycle(self):
        # An engine holds no OS resources: it is neither closable nor
        # a context manager.
        engine = EvaluationEngine(case_study_problem())
        assert not hasattr(engine, "close")
        with pytest.raises((TypeError, AttributeError)):
            with engine:
                pass

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("backend", "vector"),
            ("chunk_size", 16),
            ("max_workers", 2),
            ("pool_registry", None),
        ],
    )
    def test_engine_takes_no_backend_knobs(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            EvaluationEngine(case_study_problem(), **{knob: value})

    def test_no_backend_registry_remains(self):
        engine = EvaluationEngine(case_study_problem())
        assert not hasattr(engine, "set_backend")
        assert not hasattr(engine, "backend")
        for name in (
            "ENGINE_BACKENDS", "BACKEND_ENV_VAR", "resolve_backend",
            "SerialBackend", "VectorBackend",
        ):
            assert not hasattr(engine_module, name), name

    def test_pool_registry_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.optimizer.pools  # noqa: F401

    def test_evaluate_many_consumes_its_input_lazily(self):
        engine = EvaluationEngine(case_study_problem())
        endless = itertools.cycle(paper_pairs(engine.space))
        options = list(itertools.islice(engine.evaluate_many(endless), 20))
        assert [o.option_id for o in options] == [
            *range(1, 9), *range(1, 9), 1, 2, 3, 4,
        ]
        assert engine.stats.candidate_evaluations == 20

    @pytest.mark.parametrize("cache", [True, False])
    def test_wrong_arity_indices_rejected(self, cache):
        engine = EvaluationEngine(case_study_problem(), cache=cache)
        with pytest.raises(OptimizerError, match="choice indices"):
            list(engine.evaluate_many([(1, (0,))]))
        assert not engine._results

    def test_failed_evaluation_does_not_wedge_the_engine(self):
        engine = EvaluationEngine(case_study_problem(), cache=False)
        with pytest.raises(IndexError):
            list(engine.evaluate_many([(1, (99, 99, 99))]))
        assert len(list(engine.evaluate_all())) == engine.space.size

    def test_replay_is_pure_cache_hits(self):
        engine = EvaluationEngine(
            random_problem(17, clusters=4, choices_per_layer=2)
        )
        list(engine.evaluate_all())
        combines = engine.stats.incremental_combines
        list(engine.evaluate_all())
        assert engine.stats.incremental_combines == combines
        assert engine.stats.cache_hits == engine.space.size

    def test_options_stay_lazy(self):
        problem = case_study_problem()
        options = list(EvaluationEngine(problem).evaluate_all())
        assert all(not option.system_is_materialized for option in options)
        # Forcing one topology still works.
        assert options[0].system.cluster_names == (
            problem.bare_system.cluster_names
        )


NO_NUMPY_SCRIPT = """
import sys

import repro
import repro.analysis
import repro.cli.main
import repro.server
from repro.broker.envelope import RecommendEnvelope
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.optimizer.advisor import advise_upgrades
from repro.optimizer.brute_force import brute_force_optimize
from repro.sla.contract import Contract
from repro.workloads.case_study import case_study_problem

broker = BrokerService(all_providers())
broker.observe_all(years=0.2, seed=1)
contract = Contract.linear(98.0, 100.0)
with broker.session() as session:
    for strategy in ("pruned", "branch-and-bound", "brute-force"):
        for backend in (None, "serial", "vector"):
            request = three_tier_request(
                contract, strategy=strategy, backend=backend
            )
            session.recommend(request)
            session.recommend_envelope(RecommendEnvelope(request))
problem = case_study_problem()
brute_force_optimize(problem)
brute_force_optimize(problem, keep_options=False)
advise_upgrades(problem, ("hypervisor-n+1", "raid-1", "dual-gateway"))
print("numpy" in sys.modules)
"""


def test_running_every_path_never_loads_numpy(tmp_path):
    # numpy is no longer a dependency: importing the package and
    # serving every strategy, brute-force tables and the wire path
    # included, plus the advisor, leaves it unloaded.  A fresh
    # interpreter, since the test runner may have loaded it itself.
    script = tmp_path / "no_numpy.py"
    script.write_text(NO_NUMPY_SCRIPT)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.splitlines() == ["False"]
