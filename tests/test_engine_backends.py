"""Cross-backend equivalence: serial and vector are one engine.

The backend contract is byte-level: for any problem, every backend must
yield the *identical* ``EvaluatedOption`` stream in the identical order —
same ids, same choice names, bit-identical availability and TCO floats —
including replayed (cache-hit) streams and ``from_stream`` distillation.
These tests sweep the paper's named workload scenarios plus
hypothesis-randomized catalogs/contracts, and pin down the failure
modes: a chunk that fails mid-stream surfaces a structured engine
error without wedging the engine.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizerError
from repro.optimizer import engine as engine_module
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import (
    BACKEND_ENV_VAR,
    ENGINE_BACKENDS,
    EvaluationEngine,
    VectorBackend,
    resolve_backend,
)
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

#: The backends every equivalence assertion sweeps.
ALL_BACKENDS = ENGINE_BACKENDS

#: Non-serial backends whose streams must match serial byte-for-byte.
NON_SERIAL = tuple(name for name in ENGINE_BACKENDS if name != "serial")

#: Named workload scenarios for the acceptance criterion (>= 3).
WORKLOAD_PROBLEMS = [
    ("case-study", case_study_problem),
    *(
        (name, (lambda n: lambda: SCENARIOS[n].problem)(name))
        for name in sorted(SCENARIOS)
    ),
]


def stream_signature(options) -> bytes:
    """A byte string that is equal iff two option streams are identical.

    Each option is pickled independently (no cross-option memoization,
    so a replayed stream of shared cache-hit objects serializes the same
    as a stream of fresh ones); floats pickle to their exact bit
    patterns, making this a true bit-identity check.
    """
    return b"".join(
        pickle.dumps(
            (
                option.option_id,
                option.choice_names,
                option.availability,
                option.tco,
                option.meets_sla,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for option in options
    )


def backend_engine(problem, backend: str, **kwargs) -> EvaluationEngine:
    return EvaluationEngine(problem, backend=backend, **kwargs)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("label, factory", WORKLOAD_PROBLEMS)
    def test_workload_scenarios_bit_identical(self, label, factory):
        problem = factory()
        reference = list(
            backend_engine(problem, "serial").evaluate_all()
        )
        expected = stream_signature(reference)
        for backend in NON_SERIAL:
            engine = backend_engine(problem, backend, chunk_size=16)
            assert stream_signature(engine.evaluate_all()) == expected, (
                label,
                backend,
            )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        clusters=st.integers(min_value=2, max_value=4),
        choices=st.integers(min_value=1, max_value=3),
    )
    def test_property_randomized_catalogs_and_contracts(
        self, seed, clusters, choices
    ):
        problem = random_problem(
            seed, clusters=clusters, choices_per_layer=choices
        )
        expected = stream_signature(
            backend_engine(problem, "serial").evaluate_all()
        )
        for backend in NON_SERIAL:
            engine = backend_engine(problem, backend, chunk_size=7)
            first = stream_signature(engine.evaluate_all())
            replay = stream_signature(engine.evaluate_all())
            assert first == expected, backend
            # The replay is served from the ChoiceNames result cache
            # (relabelled hits) and must still be byte-identical.
            assert replay == expected, backend
            assert engine.stats.cache_hits >= engine.space.size

    def test_distilled_vector_sweep_matches_serial_table(self):
        problem = random_problem(5, clusters=4, choices_per_layer=3)
        full = brute_force_optimize(problem)
        engine = backend_engine(problem, "vector", cache=False, chunk_size=32)
        distilled = engine.sweep(keep_options=False)
        assert distilled.evaluations == full.evaluations
        assert distilled.best.option_id == full.best.option_id
        assert distilled.best.tco.total == full.best.tco.total
        assert (
            distilled.min_penalty_option.option_id
            == full.min_penalty_option.option_id
        )

    def test_options_stay_lazy_across_backends(self):
        problem = case_study_problem()
        for backend in ALL_BACKENDS:
            engine = backend_engine(problem, backend)
            options = list(engine.evaluate_all())
            assert all(
                not option.system_is_materialized for option in options
            ), backend
            # Forcing one topology still works (and matches direct).
            assert options[0].system.cluster_names == (
                problem.bare_system.cluster_names
            )

    @pytest.mark.parametrize(
        "clause",
        [
            NoPenalty(),
            TieredPenalty(((2.0, 100.0), (8.0, 250.0), (float("inf"), 500.0))),
            TieredPenalty(((2.0, 100.0),)),  # closed tail extends last rate
            CappedPenalty(LinearPenalty(100.0), monthly_cap=400.0),
            ServiceCreditPenalty(5000.0, ((2.0, 0.10), (10.0, 0.25))),
        ],
        ids=["none", "tiered-open", "tiered-closed", "capped", "credits"],
    )
    def test_non_linear_clauses_bit_identical(self, clause):
        # The workload generators only emit linear contracts, so the
        # vectorized clause kernels (tiered masks, caps, credit steps)
        # need their own end-to-end sweep through every backend.
        base = random_problem(31, clusters=3, choices_per_layer=3)
        problem = dataclasses.replace(
            base,
            contract=Contract(sla=base.contract.sla, penalty=clause),
        )
        expected = stream_signature(
            backend_engine(problem, "serial").evaluate_all()
        )
        for backend in NON_SERIAL:
            engine = backend_engine(problem, backend, chunk_size=16)
            assert stream_signature(engine.evaluate_all()) == expected, (
                backend
            )


class TestBackendRebinding:
    def test_set_backend_keeps_term_and_result_caches(self):
        problem = random_problem(11, clusters=3, choices_per_layer=2)
        engine = EvaluationEngine(problem, chunk_size=4)
        expected = stream_signature(engine.evaluate_all())
        terms = engine.stats.cluster_term_computations
        combines = engine.stats.incremental_combines
        for backend in NON_SERIAL + ("serial",):
            engine.set_backend(backend)
            assert engine.backend == backend
            assert stream_signature(engine.evaluate_all()) == expected
            # Rebinding never invalidates the caches: no new cluster
            # terms, no new combines — replays are pure hits.
            assert engine.stats.cluster_term_computations == terms
            assert engine.stats.incremental_combines == combines

    def test_unknown_backend_rejected(self):
        with pytest.raises(OptimizerError, match="backend"):
            EvaluationEngine(case_study_problem(), backend="quantum")
        engine = EvaluationEngine(case_study_problem())
        with pytest.raises(OptimizerError, match="backend"):
            engine.set_backend("quantum")

    def test_engine_rejects_bad_chunk_size(self):
        with pytest.raises(OptimizerError, match="chunk_size"):
            EvaluationEngine(case_study_problem(), chunk_size=0)

    def test_engine_has_no_close_lifecycle(self):
        # Both backends hold no OS resources, so there is nothing to
        # release: an engine is neither closable nor a context manager.
        engine = EvaluationEngine(case_study_problem())
        assert not hasattr(engine, "close")
        with pytest.raises((TypeError, AttributeError)):
            with engine:
                pass

    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_backends_have_nothing_to_close(self, backend):
        assert not hasattr(engine_module._BACKEND_TYPES[backend], "close")

    @pytest.mark.parametrize("knob", ["max_workers", "chunk_size"])
    def test_set_backend_takes_no_pool_knobs(self, knob):
        engine = EvaluationEngine(case_study_problem())
        with pytest.raises(TypeError, match=knob):
            engine.set_backend("vector", **{knob: 2})

    @pytest.mark.parametrize(
        "knob, value", [("max_workers", 2), ("pool_registry", None)]
    )
    def test_engine_takes_no_pool_knobs(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            EvaluationEngine(case_study_problem(), **{knob: value})


class TestEnvironmentDefault:
    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        engine = EvaluationEngine(case_study_problem())
        assert engine.backend == "vector"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        engine = EvaluationEngine(case_study_problem(), backend="serial")
        assert engine.backend == "serial"

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(OptimizerError, match="REPRO_BACKEND"):
            resolve_backend(None)

    def test_empty_env_var_means_unset(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend(None) == "serial"

    def test_retired_process_backend_rejected(self, monkeypatch):
        with pytest.raises(OptimizerError, match="'process'"):
            EvaluationEngine(case_study_problem(), backend="process")
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        with pytest.raises(OptimizerError, match="REPRO_BACKEND"):
            EvaluationEngine(case_study_problem())


class TestFailureModes:
    def test_chunk_failure_surfaces_structured_error(self):
        # cache=False skips the per-candidate ChoiceNames probe, so the
        # out-of-range index reaches the numpy gather mid-chunk.
        problem = case_study_problem()
        engine = backend_engine(problem, "vector", cache=False)
        with pytest.raises(OptimizerError):
            list(engine.evaluate_many([(1, (99, 99, 99))]))
        # The engine is not wedged: the next stream works.
        options = list(engine.evaluate_all())
        assert len(options) == engine.space.size


class TestStrategiesAcrossBackends:
    def test_shared_engine_serves_all_strategies(self):
        from repro.optimizer.branch_bound import branch_and_bound_optimize
        from repro.optimizer.pruned import pruned_optimize

        problem = random_problem(3, clusters=4, choices_per_layer=2)
        reference = brute_force_optimize(problem)
        engine = backend_engine(problem, "vector", chunk_size=8)
        brute = brute_force_optimize(problem, engine=engine)
        pruned = pruned_optimize(problem, engine=engine)
        bnb = branch_and_bound_optimize(problem, engine=engine)
        assert brute.best.tco.total == reference.best.tco.total
        assert pruned.best.tco.total == reference.best.tco.total
        assert bnb.best.tco.total == reference.best.tco.total
        stats = engine.stats
        assert stats.cache_hits + stats.incremental_combines == (
            stats.candidate_evaluations
        )


class TestDistilledSweep:
    """EvaluationEngine.sweep: block-distilled ranking == scalar fold."""

    CLAUSES = [
        NoPenalty(),
        LinearPenalty(950.0),
        TieredPenalty(((4.0, 500.0), (12.0, 900.0), (float("inf"), 1500.0))),
        CappedPenalty(LinearPenalty(1200.0), monthly_cap=20000.0),
        ServiceCreditPenalty(
            250000.0, ((2.0, 0.05), (8.0, 0.15), (24.0, 0.4))
        ),
    ]

    @staticmethod
    def _with_clause(problem, clause):
        return dataclasses.replace(
            problem,
            contract=Contract(sla=problem.contract.sla, penalty=clause),
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_sweep_matches_serial_distillation(self, backend):
        problem = random_problem(47, clusters=4, choices_per_layer=3)
        reference = backend_engine(problem, "serial", cache=False).sweep(
            keep_options=False
        )
        engine = backend_engine(problem, backend, cache=False, chunk_size=16)
        result = engine.sweep(keep_options=False)
        assert result.evaluations == reference.evaluations
        assert result.space_size == reference.space_size
        assert stream_signature(result.options) == stream_signature(
            reference.options
        )

    @pytest.mark.parametrize(
        "clause",
        CLAUSES,
        ids=["none", "linear", "tiered", "capped", "credits"],
    )
    def test_distill_bit_identical_across_penalty_shapes(self, clause):
        problem = self._with_clause(
            random_problem(48, clusters=3, choices_per_layer=3), clause
        )
        reference = backend_engine(problem, "serial", cache=False).sweep(
            keep_options=False
        )
        engine = backend_engine(problem, "vector", cache=False, chunk_size=8)
        distilled = engine.sweep(keep_options=False)
        assert stream_signature(distilled.options) == stream_signature(
            reference.options
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_distill_matches_scalar_fold_on_random_catalogs(self, seed):
        problem = random_problem(seed, clusters=3, choices_per_layer=3)
        reference = backend_engine(problem, "serial", cache=False).sweep(
            keep_options=False
        )
        engine = backend_engine(problem, "vector", cache=False, chunk_size=16)
        distilled = engine.sweep(keep_options=False)
        assert distilled.evaluations == reference.evaluations
        assert stream_signature(distilled.options) == stream_signature(
            reference.options
        )

    def test_sweep_with_tables_matches_serial_table(self):
        problem = random_problem(49, clusters=3, choices_per_layer=3)
        reference = brute_force_optimize(problem)
        engine = backend_engine(problem, "vector", chunk_size=16)
        table = engine.sweep(keep_options=True)
        assert stream_signature(table.options) == stream_signature(
            reference.options
        )

    def test_distill_with_cache_on_admits_every_payload(self):
        problem = random_problem(50, clusters=3, choices_per_layer=2)
        engine = backend_engine(problem, "vector", cache=True, chunk_size=16)
        first = engine.sweep(keep_options=False)
        assert engine.stats.incremental_combines == engine.space.size
        hits_before = engine.stats.cache_hits
        replay = engine.sweep(keep_options=False)
        assert stream_signature(first.options) == stream_signature(
            replay.options
        )
        # Ranked blocks still admit every lane's payload, so the
        # replayed sweep is answered from the result cache.
        assert engine.stats.cache_hits - hits_before == engine.space.size

    def test_distill_counts_full_space_in_stats(self):
        problem = random_problem(51, clusters=3, choices_per_layer=3)
        engine = backend_engine(problem, "vector", cache=False, chunk_size=16)
        result = engine.sweep(keep_options=False)
        serial = backend_engine(problem, "serial", cache=False)
        serial.sweep(keep_options=False)
        assert result.evaluations == engine.space.size
        assert engine.stats.candidate_evaluations == engine.space.size
        # Ranked blocks convert only their winners to payloads, yet
        # every lane was evaluated: the stats equal a serial sweep's.
        assert engine.stats.incremental_combines == engine.space.size
        assert engine.stats == serial.stats

    def test_brute_force_optimize_routes_distilled(self):
        problem = random_problem(52, clusters=3, choices_per_layer=3)
        serial_result = brute_force_optimize(problem, keep_options=False)
        engine = backend_engine(problem, "vector", cache=False)
        vector_result = brute_force_optimize(
            problem, engine=engine, keep_options=False
        )
        assert stream_signature(vector_result.options) == stream_signature(
            serial_result.options
        )

    def test_fold_winners_requires_distilled_accumulator(self):
        engine = EvaluationEngine(case_study_problem())
        accumulator = engine.accumulator("brute-force", keep_options=True)
        with pytest.raises(OptimizerError, match="keep_options"):
            accumulator.fold_winners([], evaluated=4)


class TestVectorBackend:
    """Vector-specific contracts (equivalence runs in the shared sweeps)."""

    def test_replay_is_pure_cache_hits(self):
        problem = random_problem(17, clusters=4, choices_per_layer=2)
        engine = backend_engine(problem, "vector", chunk_size=8)
        list(engine.evaluate_all())
        combines = engine.stats.incremental_combines
        list(engine.evaluate_all())
        assert engine.stats.incremental_combines == combines
        assert engine.stats.cache_hits == engine.space.size

    def test_wrong_arity_indices_rejected(self):
        problem = case_study_problem()
        engine = backend_engine(problem, "vector", cache=False)
        with pytest.raises(OptimizerError, match="choice indices"):
            list(engine.evaluate_many([(1, (0,))]))

    def test_int_valued_costs_stay_bit_identical(self):
        # Specs built with int dollar amounts are legal; the scalar
        # paths must not flow int arithmetic while the float64 columns
        # produce floats (cluster_cost_terms coerces at construction).
        from repro.catalog.raid import RAID1
        from repro.catalog.registry import TechnologyRegistry
        from repro.cost.rates import LaborRate
        from repro.optimizer.space import OptimizationProblem
        from repro.sla.contract import Contract
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
        expected = stream_signature(
            EvaluationEngine(problem, backend="serial").evaluate_all()
        )
        engine = backend_engine(problem, "vector", chunk_size=2)
        assert stream_signature(engine.evaluate_all()) == expected

    def test_payload_floats_are_plain_floats(self):
        # Options must pickle identically to serial ones, so no numpy
        # scalar may leak into availability/TCO fields.
        problem = case_study_problem()
        engine = backend_engine(problem, "vector", chunk_size=4)
        option = next(iter(engine.evaluate_all()))
        assert type(option.tco.total) is float
        assert type(option.availability.breakdown_probability) is float
        assert all(
            type(cluster.failover_contribution) is float
            for cluster in option.availability.clusters
        )


LAZY_NUMPY_SCRIPT = """
import sys

import repro.broker.api
import repro.cli.main
import repro.server
from repro.broker.request import three_tier_request
from repro.broker.service import BrokerService
from repro.cloud.providers import all_providers
from repro.server import ServerClient, start_in_thread
from repro.sla.contract import Contract

broker = BrokerService(all_providers())
broker.observe_all(years=0.2, seed=1)
contract = Contract.linear(98.0, 100.0)
with start_in_thread(broker, workers=0) as handle:
    client = ServerClient(handle.host, handle.port)
    client.recommend(three_tier_request(contract))
    print("pruned", "numpy" in sys.modules)
    client.recommend(
        three_tier_request(contract, strategy="brute-force", backend="vector")
    )
    print("vector", "numpy" in sys.modules)
"""


def test_numpy_loads_only_on_first_vector_batch(tmp_path):
    # A server that only answers pruned searches never pays numpy's
    # import time and memory; the first vector batch loads it.  Run in
    # a fresh interpreter, since this one has numpy loaded already.
    script = tmp_path / "lazy_numpy.py"
    script.write_text(LAZY_NUMPY_SCRIPT)
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
    assert completed.stdout.splitlines() == ["pruned False", "vector True"]


def test_backend_constants_are_consistent():
    assert ENGINE_BACKENDS == ("serial", "vector")
    assert set(ENGINE_BACKENDS) == set(engine_module._BACKEND_TYPES)
    assert VectorBackend.name == "vector"


def test_pool_registry_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.optimizer.pools  # noqa: F401
