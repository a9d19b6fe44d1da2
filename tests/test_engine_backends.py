"""Cross-backend equivalence: serial, process and vector are one engine.

The backend contract is byte-level: for any problem, every backend must
yield the *identical* ``EvaluatedOption`` stream in the identical order —
same ids, same choice names, bit-identical availability and TCO floats —
including replayed (cache-hit) streams and ``from_stream`` distillation.
These tests sweep the paper's named workload scenarios plus
hypothesis-randomized catalogs/contracts, and pin down the failure
modes: a worker that dies mid-chunk surfaces a structured engine error,
pool shutdown is clean and reversible, the process backend degrades to
serial (with a warning) where worker processes cannot start, and the
vector backend degrades the same way when numpy is not installed.

Pool *ownership* is tested here too: process executors are leased
from a ref-counted :class:`~repro.optimizer.pools.PoolRegistry`, so N
engines share one pool whose workers hold term tables for all of them,
and the pool shuts down when the last holder closes.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EngineBackendError, OptimizerError
from repro.optimizer import engine as engine_module
from repro.optimizer import pools as pools_module
from repro.optimizer.brute_force import brute_force_optimize
from repro.optimizer.engine import (
    BACKEND_ENV_VAR,
    ENGINE_BACKENDS,
    TERM_TABLE_BACKENDS,
    EvaluationEngine,
    ProcessBackend,
    VectorBackend,
    resolve_backend,
)
from repro.optimizer.pools import PoolRegistry
from repro.optimizer.result import OptimizationResult
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

HAS_NUMPY = engine_module._import_numpy() is not None

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy not installed (the [vector] extra)"
)

#: Non-serial backends whose streams must match serial byte-for-byte.
#: Without numpy the vector backend degrades (warning) — the degrade
#: path has its own tests, so equivalence sweeps skip it there.
NON_SERIAL = tuple(
    backend
    for backend in ENGINE_BACKENDS
    if backend != "serial" and (backend != "vector" or HAS_NUMPY)
)

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
            with backend_engine(problem, backend, chunk_size=16) as engine:
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
            with backend_engine(problem, backend, chunk_size=7) as engine:
                first = stream_signature(engine.evaluate_all())
                replay = stream_signature(engine.evaluate_all())
            assert first == expected, backend
            # The replay is served from the ChoiceNames result cache
            # (relabelled hits) and must still be byte-identical.
            assert replay == expected, backend
            assert engine.stats.cache_hits >= engine.space.size

    def test_cache_hit_replay_is_pure_hits_on_process_backend(self):
        problem = random_problem(17, clusters=4, choices_per_layer=2)
        with backend_engine(problem, "process", chunk_size=8) as engine:
            list(engine.evaluate_all())
            combines = engine.stats.incremental_combines
            list(engine.evaluate_all())
            assert engine.stats.incremental_combines == combines
            assert engine.stats.cache_hits == engine.space.size

    @pytest.mark.parametrize(
        "backend",
        ["process", pytest.param("vector", marks=requires_numpy)],
    )
    def test_from_stream_distillation_matches_serial(self, backend):
        problem = random_problem(5, clusters=4, choices_per_layer=3)
        full = brute_force_optimize(problem)
        with backend_engine(
            problem, backend, cache=False, chunk_size=32
        ) as engine:
            distilled = OptimizationResult.from_stream(
                engine.evaluate_all(),
                space_size=engine.space.size,
                strategy="brute-force",
                keep_options=False,
            )
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
            with backend_engine(problem, backend) as engine:
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
            with backend_engine(problem, backend, chunk_size=16) as engine:
                assert stream_signature(engine.evaluate_all()) == expected, (
                    backend
                )


class TestBackendRebinding:
    def test_set_backend_keeps_term_and_result_caches(self):
        problem = random_problem(11, clusters=3, choices_per_layer=2)
        engine = EvaluationEngine(problem)
        expected = stream_signature(engine.evaluate_all())
        terms = engine.stats.cluster_term_computations
        combines = engine.stats.incremental_combines
        for backend in NON_SERIAL + ("serial",):
            engine.set_backend(backend, chunk_size=4)
            assert engine.backend == backend
            assert stream_signature(engine.evaluate_all()) == expected
            # Rebinding never invalidates the caches: no new cluster
            # terms, no new combines — replays are pure hits.
            assert engine.stats.cluster_term_computations == terms
            assert engine.stats.incremental_combines == combines
        engine.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(OptimizerError, match="backend"):
            EvaluationEngine(case_study_problem(), backend="quantum")
        engine = EvaluationEngine(case_study_problem())
        with pytest.raises(OptimizerError, match="backend"):
            engine.set_backend("quantum")

    @pytest.mark.parametrize("backend", TERM_TABLE_BACKENDS)
    def test_term_table_backends_require_incremental_mode(self, backend):
        with pytest.raises(OptimizerError, match="incremental"):
            EvaluationEngine(
                case_study_problem(), mode="direct", backend=backend
            )
        engine = EvaluationEngine(case_study_problem(), mode="direct")
        with pytest.raises(OptimizerError, match="direct"):
            engine.set_backend(backend)

    def test_set_backend_rejects_bad_chunk_size(self):
        engine = EvaluationEngine(case_study_problem())
        with pytest.raises(OptimizerError, match="chunk_size"):
            engine.set_backend("process", chunk_size=0)

    def test_set_backend_resize_recreates_pool(self):
        problem = case_study_problem()
        with backend_engine(problem, "process", max_workers=1) as engine:
            list(engine.evaluate_all())
            old_pool = engine._backend_impl._pool
            assert old_pool is not None
            engine.set_backend("process", max_workers=2)
            # The live pool is dropped so the next stream honours the
            # new width; caches survive untouched.
            assert engine._backend_impl._pool is None
            assert engine.max_workers == 2
            list(engine.evaluate_all())
            assert engine.stats.cache_hits >= engine.space.size


class TestEnvironmentDefault:
    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        engine = EvaluationEngine(case_study_problem())
        assert engine.backend == "process"
        engine.close()

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        engine = EvaluationEngine(case_study_problem(), backend="serial")
        assert engine.backend == "serial"

    @pytest.mark.parametrize("backend", TERM_TABLE_BACKENDS)
    def test_env_term_table_backends_never_forced_onto_direct_mode(
        self, monkeypatch, backend
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        engine = EvaluationEngine(case_study_problem(), mode="direct")
        assert engine.backend == "serial"

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(OptimizerError, match="REPRO_BACKEND"):
            resolve_backend(None)

    def test_empty_env_var_means_unset(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend(None) == "serial"


class TestFailureModes:
    @pytest.mark.parametrize(
        "backend",
        ["process", pytest.param("vector", marks=requires_numpy)],
    )
    def test_worker_failure_surfaces_structured_error(self, backend):
        # cache=False skips the parent-side ChoiceNames probe, so the
        # out-of-range index reaches the worker and blows up mid-chunk.
        problem = case_study_problem()
        with backend_engine(problem, backend, cache=False) as engine:
            with pytest.raises(OptimizerError):
                list(engine.evaluate_many([(1, (99, 99, 99))]))
            # The pool is not wedged: the next stream works.
            options = list(engine.evaluate_all())
            assert len(options) == engine.space.size

    def test_process_worker_crash_wraps_into_backend_error(self):
        # An unpicklable-result / dead-worker class of failure: kill the
        # chunk function itself so the future carries a non-library
        # error, which must come back as EngineBackendError.
        problem = case_study_problem()
        engine = backend_engine(problem, "process", cache=False)
        try:
            original = engine_module._process_worker_chunk
            engine_module._process_worker_chunk = None  # unpicklable call
            with pytest.raises((EngineBackendError, OptimizerError)):
                list(engine.evaluate_all())
        finally:
            engine_module._process_worker_chunk = original
            engine.close()

    def test_engine_close_is_clean_and_idempotent(self):
        problem = case_study_problem()
        engine = backend_engine(problem, "process", chunk_size=2)
        list(engine.evaluate_all())
        backend = engine._backend_impl
        assert backend._pool is not None
        engine.close()
        assert backend._pool is None
        engine.close()  # idempotent
        # A closed engine lazily recreates its pool on next use.
        assert len(list(engine.evaluate_all())) == engine.space.size
        engine.close()
        assert backend._pool is None

    def test_session_close_shuts_down_cached_engine_pools(self):
        from repro.broker.service import BrokerService
        from repro.cloud.providers import metalcloud
        from repro.broker.request import three_tier_request
        from repro.sla.contract import Contract

        broker = BrokerService([metalcloud()])
        broker.observe_all(years=3.0, seed=5)
        session = broker.session(backend="process")
        request = three_tier_request(
            Contract.linear(98.0, 100.0), strategy="brute-force"
        )
        session.recommend(request)
        engines = session.engine_cache.engines()
        assert engines and all(
            engine.backend == "process" for engine in engines
        )
        session.close()
        assert all(
            engine._backend_impl._pool is None for engine in engines
        )

    def test_process_backend_degrades_to_serial_with_warning(self, monkeypatch):
        problem = case_study_problem()
        reference = stream_signature(
            EvaluationEngine(problem).evaluate_all()
        )

        def unavailable(*args, **kwargs):
            raise NotImplementedError("no process support on this platform")

        monkeypatch.setattr(
            pools_module.PoolRegistry, "acquire", unavailable
        )
        engine = backend_engine(problem, "process")
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            options = list(engine.evaluate_all())
        assert stream_signature(options) == reference
        # Degradation is sticky (no warning spam, no retry storm).
        assert stream_signature(engine.evaluate_all()) == reference
        assert engine._backend_impl._degraded is True

    def test_degraded_backend_still_counts_stats(self, monkeypatch):
        problem = case_study_problem()

        def unavailable(*args, **kwargs):
            raise OSError("fork failed")

        monkeypatch.setattr(pools_module.PoolRegistry, "acquire", unavailable)
        engine = backend_engine(problem, "process")
        with pytest.warns(RuntimeWarning):
            list(engine.evaluate_all())
        assert engine.stats.incremental_combines == engine.space.size
        assert engine.stats.topology_evaluations == 0


class TestStrategiesAcrossBackends:
    @pytest.mark.parametrize("backend", ["process"])
    def test_shared_engine_serves_all_strategies(self, backend):
        from repro.optimizer.branch_bound import branch_and_bound_optimize
        from repro.optimizer.pruned import pruned_optimize

        problem = random_problem(3, clusters=4, choices_per_layer=2)
        reference = brute_force_optimize(problem)
        with backend_engine(problem, backend, chunk_size=8) as engine:
            brute = brute_force_optimize(problem, engine=engine)
            pruned = pruned_optimize(problem, engine=engine)
            bnb = branch_and_bound_optimize(problem, engine=engine)
        assert brute.best.tco.total == reference.best.tco.total
        assert pruned.best.tco.total == reference.best.tco.total
        assert bnb.best.tco.total == reference.best.tco.total
        assert engine.stats.topology_evaluations == 0


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
        with backend_engine(problem, "serial", cache=False) as engine:
            reference = engine.sweep(keep_options=False)
        with backend_engine(
            problem, backend, cache=False, chunk_size=16
        ) as engine:
            result = engine.sweep(keep_options=False)
        assert result.evaluations == reference.evaluations
        assert result.space_size == reference.space_size
        assert stream_signature(result.options) == stream_signature(
            reference.options
        )

    @requires_numpy
    @pytest.mark.parametrize(
        "clause",
        CLAUSES,
        ids=["none", "linear", "tiered", "capped", "credits"],
    )
    def test_distill_bit_identical_across_penalty_shapes(self, clause):
        problem = self._with_clause(
            random_problem(48, clusters=3, choices_per_layer=3), clause
        )
        with backend_engine(problem, "serial", cache=False) as engine:
            reference = engine.sweep(keep_options=False)
        with backend_engine(
            problem, "vector", cache=False, chunk_size=8
        ) as engine:
            distilled = engine.sweep(keep_options=False)
        assert stream_signature(distilled.options) == stream_signature(
            reference.options
        )

    @requires_numpy
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_distill_matches_scalar_fold_on_random_catalogs(self, seed):
        problem = random_problem(seed, clusters=3, choices_per_layer=3)
        with backend_engine(problem, "serial", cache=False) as engine:
            reference = engine.sweep(keep_options=False)
        with backend_engine(
            problem, "vector", cache=False, chunk_size=16
        ) as engine:
            distilled = engine.sweep(keep_options=False)
        assert distilled.evaluations == reference.evaluations
        assert stream_signature(distilled.options) == stream_signature(
            reference.options
        )

    @requires_numpy
    def test_sweep_with_tables_matches_from_stream(self):
        problem = random_problem(49, clusters=3, choices_per_layer=3)
        reference = brute_force_optimize(problem)
        with backend_engine(problem, "vector", chunk_size=16) as engine:
            table = engine.sweep(keep_options=True)
        assert stream_signature(table.options) == stream_signature(
            reference.options
        )

    @requires_numpy
    def test_distill_with_cache_on_falls_back_and_admits(self):
        problem = random_problem(50, clusters=3, choices_per_layer=2)
        with backend_engine(
            problem, "vector", cache=True, chunk_size=16
        ) as engine:
            first = engine.sweep(keep_options=False)
            hits_before = engine.stats.cache_hits
            replay = engine.sweep(keep_options=False)
        assert stream_signature(first.options) == stream_signature(
            replay.options
        )
        # The fallback fold streams per candidate, so the replayed sweep
        # is answered from the result cache it populated.
        assert engine.stats.cache_hits - hits_before == engine.space.size

    @requires_numpy
    def test_distill_counts_full_space_in_stats(self):
        problem = random_problem(51, clusters=3, choices_per_layer=3)
        with backend_engine(
            problem, "vector", cache=False, chunk_size=16
        ) as engine:
            result = engine.sweep(keep_options=False)
            evaluated = engine.stats.candidate_evaluations
            combined = engine.stats.incremental_combines
        assert result.evaluations == engine.space.size
        assert evaluated == engine.space.size
        # Winners-only assembly: far fewer options built than evaluated.
        assert combined < evaluated

    @requires_numpy
    def test_brute_force_optimize_routes_distilled(self):
        problem = random_problem(52, clusters=3, choices_per_layer=3)
        serial_result = brute_force_optimize(problem, keep_options=False)
        with backend_engine(problem, "vector", cache=False) as engine:
            vector_result = brute_force_optimize(
                problem, engine=engine, keep_options=False
            )
        assert stream_signature(vector_result.options) == stream_signature(
            serial_result.options
        )

    def test_fold_winners_requires_distilled_accumulator(self):
        from repro.optimizer.result import ResultAccumulator

        accumulator = ResultAccumulator(
            space_size=4, strategy="brute-force", keep_options=True
        )
        with pytest.raises(OptimizerError, match="keep_options"):
            accumulator.fold_winners([], evaluated=4)


class TestVectorBackend:
    """Vector-specific contracts (equivalence runs in the shared sweeps)."""

    def test_degrades_to_serial_with_warning_without_numpy(self, monkeypatch):
        problem = case_study_problem()
        reference = stream_signature(EvaluationEngine(problem).evaluate_all())
        monkeypatch.setattr(engine_module, "_import_numpy", lambda: None)
        engine = backend_engine(problem, "vector")
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            options = list(engine.evaluate_all())
        assert stream_signature(options) == reference
        # Degradation is sticky (no warning spam, no import retry storm).
        assert stream_signature(engine.evaluate_all()) == reference
        assert engine._backend_impl._degraded is True
        assert engine.stats.topology_evaluations == 0

    @requires_numpy
    def test_replay_is_pure_cache_hits(self):
        problem = random_problem(17, clusters=4, choices_per_layer=2)
        with backend_engine(problem, "vector", chunk_size=8) as engine:
            list(engine.evaluate_all())
            combines = engine.stats.incremental_combines
            list(engine.evaluate_all())
            assert engine.stats.incremental_combines == combines
            assert engine.stats.cache_hits == engine.space.size

    @requires_numpy
    def test_wrong_arity_indices_rejected(self):
        problem = case_study_problem()
        with backend_engine(problem, "vector", cache=False) as engine:
            with pytest.raises(OptimizerError, match="choice indices"):
                list(engine.evaluate_many([(1, (0,))]))

    @requires_numpy
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
        with backend_engine(problem, "vector", chunk_size=2) as engine:
            assert stream_signature(engine.evaluate_all()) == expected

    @requires_numpy
    def test_payload_floats_are_plain_floats(self):
        # Options must pickle identically to serial ones, so no numpy
        # scalar may leak into availability/TCO fields.
        problem = case_study_problem()
        with backend_engine(problem, "vector", chunk_size=4) as engine:
            option = next(iter(engine.evaluate_all()))
        assert type(option.tco.total) is float
        assert type(option.availability.breakdown_probability) is float
        assert all(
            type(cluster.failover_contribution) is float
            for cluster in option.availability.clusters
        )


class TestPoolRegistry:
    """Ref-counted pool sharing: N engines, one executor, clean shutdown."""

    def _problems(self):
        return (
            random_problem(31, clusters=3, choices_per_layer=2),
            random_problem(32, clusters=3, choices_per_layer=2),
        )

    def test_two_process_engines_share_exactly_one_pool(self):
        registry = PoolRegistry()
        problem_a, problem_b = self._problems()
        with backend_engine(
            problem_a, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        ) as engine_a, backend_engine(
            problem_b, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        ) as engine_b:
            expected_a = stream_signature(
                EvaluationEngine(problem_a).evaluate_all()
            )
            expected_b = stream_signature(
                EvaluationEngine(problem_b).evaluate_all()
            )
            # Interleaved streams: the same workers recombine both
            # engines' term tables, keyed by engine uid.
            assert stream_signature(engine_a.evaluate_all()) == expected_a
            assert stream_signature(engine_b.evaluate_all()) == expected_b
            assert registry.stats.pools_created == 1
            assert engine_a._backend_impl._pool is engine_b._backend_impl._pool
            assert registry.holders("process", 1) == 2
            assert set(registry.published_uids()) == {
                engine_a.uid, engine_b.uid,
            }

    def test_last_close_shuts_the_shared_pool_down(self):
        registry = PoolRegistry()
        problem_a, problem_b = self._problems()
        engine_a = backend_engine(
            problem_a, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        )
        engine_b = backend_engine(
            problem_b, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        )
        list(engine_a.evaluate_all())
        list(engine_b.evaluate_all())
        engine_a.close()
        # One holder left: the executor (and table channel) stay up.
        assert registry.active_pools() == (("process", 1),)
        assert registry.stats.pools_closed == 0
        assert registry.has_table_channel()
        assert registry.published_uids() == (engine_b.uid,)
        engine_b.close()
        assert registry.active_pools() == ()
        assert registry.stats.pools_closed == 1
        assert not registry.has_table_channel()

    def test_resize_moves_the_engine_to_a_new_keyed_pool(self):
        registry = PoolRegistry()
        problem = random_problem(33, clusters=3, choices_per_layer=2)
        with backend_engine(
            problem, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        ) as engine:
            list(engine.evaluate_all())
            assert registry.active_pools() == (("process", 1),)
            engine.set_backend("process", max_workers=2)
            # The old lease is released immediately; the new width is
            # acquired lazily by the next stream.
            assert engine._backend_impl._pool is None
            assert registry.active_pools() == ()
            list(engine.evaluate_all())
            assert registry.active_pools() == (("process", 2),)
            assert engine.stats.cache_hits >= engine.space.size

    def test_worker_failure_invalidates_only_the_broken_pool(self):
        registry = PoolRegistry()
        problem_a, problem_b = self._problems()
        engine_a = backend_engine(
            problem_a, "process", max_workers=1,
            pool_registry=registry, cache=False, chunk_size=8,
        )
        engine_b = backend_engine(
            problem_b, "process", max_workers=1,
            pool_registry=registry, chunk_size=8,
        )
        try:
            list(engine_a.evaluate_all())
            original = engine_module._process_worker_chunk
            engine_module._process_worker_chunk = None  # unpicklable call
            try:
                with pytest.raises((EngineBackendError, OptimizerError)):
                    list(engine_a.evaluate_all())
            finally:
                engine_module._process_worker_chunk = original
            assert registry.stats.invalidations == 1
            # The sharing engine simply triggers a fresh pool.
            assert stream_signature(engine_b.evaluate_all()) == (
                stream_signature(EvaluationEngine(problem_b).evaluate_all())
            )
            assert registry.stats.pools_created == 2
        finally:
            engine_a.close()
            engine_b.close()
        assert registry.active_pools() == ()

    def test_engines_default_to_the_process_global_registry(self):
        engine = EvaluationEngine(case_study_problem())
        assert engine.pool_registry is pools_module.default_registry()

    def test_unknown_pool_kind_rejected(self):
        with pytest.raises(OptimizerError, match="pool kind"):
            PoolRegistry().acquire("thread", 1)
        with pytest.raises(OptimizerError, match="workers"):
            PoolRegistry().acquire("process", 0)


class TestTermTableChannels:
    """The worker-table channel: shm segments vs. the manager dict."""

    HAS_SHM = pools_module._shared_memory is not None

    def channels(self):
        return ("shm", "manager") if self.HAS_SHM else ("manager",)

    def test_resolve_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(pools_module.TABLE_CHANNEL_ENV_VAR, "manager")
        assert pools_module.resolve_table_backend("manager") == "manager"
        monkeypatch.delenv(pools_module.TABLE_CHANNEL_ENV_VAR)
        assert pools_module.resolve_table_backend("manager") == "manager"

    def test_resolve_unknown_rejected(self):
        with pytest.raises(OptimizerError, match="table-channel"):
            pools_module.resolve_table_backend("carrier-pigeon")

    def test_shm_degrades_to_manager_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(pools_module, "_shared_memory", None)
        assert pools_module.resolve_table_backend("shm") == "manager"
        registry = PoolRegistry(table_backend="shm")
        assert registry.table_channel_backend() == "manager"

    def test_process_streams_bit_identical_on_both_channels(self):
        problem = random_problem(34, clusters=3, choices_per_layer=2)
        expected = stream_signature(
            EvaluationEngine(problem).evaluate_all()
        )
        for channel in self.channels():
            registry = PoolRegistry(table_backend=channel)
            with backend_engine(
                problem, "process", max_workers=1,
                pool_registry=registry, chunk_size=8,
            ) as engine:
                assert stream_signature(engine.evaluate_all()) == expected, (
                    channel
                )

    @pytest.mark.skipif(not HAS_SHM, reason="shared_memory unavailable")
    def test_shm_segments_are_refcounted_and_unlinked(self):
        registry = PoolRegistry(table_backend="shm")
        handle = registry.acquire("process", 1)
        try:
            registry.publish(9101, {"table": list(range(32))})
            registry.publish(9101, {"table": list(range(32))})  # refcount 2
            assert registry.published_uids() == (9101,)
            assert registry.term_table_bytes() > 0
            assert registry.stats.tables_published == 2
            registry.retract(9101)
            # Still referenced by the second publisher: segment survives.
            assert registry.published_uids() == (9101,)
            registry.retract(9101)
            assert registry.published_uids() == ()
            assert registry.term_table_bytes() == 0
            assert registry.stats.tables_retracted == 2
        finally:
            handle.release()
        assert not registry.has_table_channel()

    @pytest.mark.skipif(not HAS_SHM, reason="shared_memory unavailable")
    def test_channel_teardown_reclaims_leftover_segments(self):
        registry = PoolRegistry(table_backend="shm")
        handle = registry.acquire("process", 1)
        registry.publish(9102, {"table": [1.0, 2.0, 3.0]})
        assert registry.term_table_bytes() > 0
        # Releasing the last pool lease tears the channel down even
        # though the publisher never retracted (engine closed while
        # its tables were still up).
        handle.release()
        assert registry.term_table_bytes() == 0
        assert not registry.has_table_channel()


def test_backend_constants_are_consistent():
    assert set(ENGINE_BACKENDS) == set(engine_module._BACKEND_TYPES)
    assert ProcessBackend.name == "process"
    assert VectorBackend.name == "vector"
    assert set(TERM_TABLE_BACKENDS) <= set(ENGINE_BACKENDS)
