"""E9/E12/E13/E14 — the EvaluationEngine vs legacy, and backend vs backend.

The seed implementation rebuilt a full :class:`SystemTopology` and
re-ran the entire availability + TCO model for every one of the ``k^n``
candidates — in every strategy, separately.  The engine precomputes
``n * k`` per-(cluster, technology) factor sets once, evaluates each
candidate with an O(n) recombination, and memoizes finished options so
searches restarted over the same problem never evaluate twice.

This bench measures wall-clock and evaluations/sec across space sizes,
and verifies the acceptance criterion: on a 4-cluster x 4-technology
space (256 candidates) the engine performs at least 3x fewer
full-topology evaluations than the legacy path while producing
bit-identical results, with cache hits reported across strategy
restarts.

The ``--compare-backends`` mode (E12, re-run as E13/E14) races the
serial, process and vector evaluation backends over an extended >= 100k-
candidate catalog: distilled brute-force sweeps with the result cache
off, asserting all backends agree bit-identically and (when numpy is
installed) that the vector backend beats serial even on one core.
Without numpy the vector leg is *skipped* with a clear notice (a
degraded-to-serial timing row would be noise, not signal).  Combine with
``--smoke`` for the fast CI variant (small catalog, equivalence checks
only, no timing assertions); ``--json PATH`` writes the measured rows as
a machine-readable artifact (see BENCH_E14.json).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone

from repro.catalog.hypervisor import HypervisorHA
from repro.catalog.os_cluster import OSCluster
from repro.catalog.raid import RAID1, RAID10
from repro.catalog.registry import TechnologyRegistry
from repro.catalog.sds import SDSReplication
from repro.cost.rates import LaborRate
from repro.optimizer.advisor import advise_upgrades
from repro.optimizer.branch_bound import branch_and_bound_optimize
from repro.optimizer.brute_force import brute_force_optimize, evaluate_candidate
from repro.optimizer.engine import ENGINE_BACKENDS, EvaluationEngine
from repro.optimizer.pruned import pruned_optimize
from repro.optimizer.result import OptimizationResult
from repro.optimizer.space import OptimizationProblem
from repro.sla.contract import Contract
from repro.topology.builder import TopologyBuilder
from repro.topology.node import NodeSpec
from repro.workloads.case_study import case_study_problem
from repro.workloads.generators import random_problem


def four_by_four_problem() -> OptimizationProblem:
    """A 4-cluster space with k=4 choices per cluster (4^4 = 256).

    Alternating compute/storage layers so each cluster draws from a
    catalog of three technologies plus ``none``.
    """
    registry = TechnologyRegistry()
    registry.register(HypervisorHA(
        standby_nodes=1, failover_minutes=10.0,
        monthly_license_per_node=12.5, monthly_labor_hours=4.0,
    ))
    registry.register(HypervisorHA(
        standby_nodes=2, failover_minutes=8.0,
        monthly_license_per_node=20.0, monthly_labor_hours=5.0,
    ))
    registry.register(OSCluster(
        standby_nodes=1, failover_minutes=18.0,
        monthly_support_per_node=9.0, monthly_labor_hours=6.0,
    ))
    registry.register(RAID1(
        failover_minutes=1.0, monthly_controller_cost=30.0,
        monthly_labor_hours=2.0,
    ))
    registry.register(RAID10(
        failover_minutes=1.0, monthly_controller_cost=55.0,
        monthly_labor_hours=2.5,
    ))
    registry.register(SDSReplication(
        replica_count=3, failover_minutes=0.5,
        monthly_software_cost=80.0, monthly_labor_hours=3.0,
    ))
    compute = NodeSpec("host", 0.0025, 6.0, monthly_cost=330.0)
    volume = NodeSpec("volume", 0.015, 5.0, monthly_cost=170.0)
    system = (
        TopologyBuilder("four-by-four")
        .compute("web-compute", compute, nodes=3)
        .storage("web-storage", volume, nodes=1)
        .compute("app-compute", compute, nodes=2)
        .storage("app-storage", volume, nodes=1)
        .build()
    )
    return OptimizationProblem(
        base_system=system,
        registry=registry,
        contract=Contract.linear(98.0, 100.0),
        labor_rate=LaborRate(30.0),
    )


def _legacy_brute_force(problem):
    """The seed evaluation path: full topology + full model per candidate."""
    space = problem.space()
    return [
        evaluate_candidate(problem, space, option_id, indices)
        for option_id, indices in enumerate(
            space.candidates_in_paper_order(), start=1
        )
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_engine_wall_clock_across_space_sizes(benchmark, emit):
    """Wall-clock and evaluations/sec: legacy path vs cached engine."""
    cases = [
        ("case study 2^3", case_study_problem()),
        ("random 3^4 x1", random_problem(11, clusters=4, choices_per_layer=3)),
        ("4-cluster 4^4", four_by_four_problem()),
    ]
    rows = []
    for label, problem in cases:
        legacy_options, legacy_seconds = _timed(lambda p=problem: _legacy_brute_force(p))
        engine = EvaluationEngine(problem)
        engine_result, engine_seconds = _timed(
            lambda p=problem, e=engine: brute_force_optimize(p, engine=e)
        )
        count = len(legacy_options)
        assert engine_result.evaluations == count
        assert engine_result.best.tco.total == min(
            option.tco.total for option in legacy_options
        )
        rows.append(
            f"  {label:<16} n={count:>4}: "
            f"legacy {count / legacy_seconds:>10.0f} evals/s "
            f"({legacy_seconds * 1e3:7.2f} ms)  "
            f"engine {count / engine_seconds:>10.0f} evals/s "
            f"({engine_seconds * 1e3:7.2f} ms)  "
            f"speedup {legacy_seconds / engine_seconds:5.1f}x"
        )

    fresh = four_by_four_problem()
    benchmark(lambda: brute_force_optimize(fresh, engine=EvaluationEngine(fresh)))
    emit("[E9] candidate evaluation throughput:\n" + "\n".join(rows))


def test_engine_avoids_full_topology_evaluations(emit):
    """Acceptance: >= 3x fewer full-topology evaluations on 4^4 space."""
    problem = four_by_four_problem()

    # Legacy accounting: every candidate evaluation in every search ran
    # the full topology + availability + TCO pipeline.
    legacy_counts = {
        "brute-force": brute_force_optimize(problem).evaluations,
        "pruned": pruned_optimize(problem).evaluations,
        "branch-and-bound": branch_and_bound_optimize(problem).evaluations,
    }
    legacy_full = sum(legacy_counts.values())

    # Engine accounting: one shared engine serves all three searches
    # plus an advisor what-if sweep; full-topology evaluations stay at
    # zero and restarts are pure cache hits.
    shared = EvaluationEngine(problem)
    results = {
        "brute-force": brute_force_optimize(problem, engine=shared),
        "pruned": pruned_optimize(problem, engine=shared),
        "branch-and-bound": branch_and_bound_optimize(problem, engine=shared),
    }
    current = ("none", "raid-1", "none", "raid-1")
    for migration_cost in (0.0, 500.0, 5000.0):
        advise_upgrades(
            problem, current, migration_cost=migration_cost, engine=shared
        )
    stats = shared.stats

    for name, result in results.items():
        assert result.best.tco.total == results["brute-force"].best.tco.total, name

    # The engine's only cluster-level model computations are the n*k
    # precomputed factor sets; candidate evaluation never rebuilds and
    # re-evaluates a topology.
    engine_full = stats.topology_evaluations + stats.cluster_term_computations
    assert stats.topology_evaluations == 0
    assert stats.incremental_combines == 256
    assert stats.cache_hits > 0
    assert legacy_full >= 3 * engine_full, (legacy_full, engine_full)

    emit(
        "[E9] full-topology evaluations on the 4-cluster x 4-technology "
        "space (256 candidates):\n"
        f"  legacy (per-strategy re-evaluation): {legacy_full} "
        f"({', '.join(f'{k}={v}' for k, v in legacy_counts.items())})\n"
        f"  engine (shared cache): {stats.topology_evaluations} full + "
        f"{stats.cluster_term_computations} per-cluster term precomputes\n"
        f"  => {legacy_full / engine_full:.1f}x fewer; "
        f"{stats.describe()}"
    )


def test_parallel_chunked_evaluation_matches(emit):
    """The process backend produces the identical option table, in order."""
    problem = four_by_four_problem()
    sequential = brute_force_optimize(problem)
    with EvaluationEngine(problem, backend="process", chunk_size=32) as engine:
        parallel = brute_force_optimize(problem, engine=engine)
    assert [option.tco.total for option in parallel.options] == [
        option.tco.total for option in sequential.options
    ]
    emit(
        "[E9] parallel chunked evaluation: 256/256 options bit-identical "
        "to sequential order"
    )


def extended_catalog_problem(clusters: int = 9) -> OptimizationProblem:
    """The E12 extended catalog: ``clusters`` layers, k=4 each.

    Nine clusters at the generator's maximum of three technologies per
    layer (plus ``none``) give ``4^9 = 262,144`` candidates — past the
    100k bar the process-backend acceptance criterion sets, and deep
    enough (n=9, within the paper's n<=10 bound) that the O(n^2)
    failover recombination dominates per-candidate cost.
    """
    return random_problem(2024, clusters=clusters, choices_per_layer=3)


def _compare_backends(smoke: bool, emit=print, json_path: str | None = None) -> int:
    """E14 (extends E12/E13) — race the evaluation backends.

    Distilled sweeps (``keep_options=False``) with per-engine result
    caches off, so every backend performs the full ``k^n`` recombination
    work and memory stays O(1).  Backends race through
    :meth:`EvaluationEngine.sweep`, so the vector leg uses the
    block-distilled ranking pass (argmin over whole blocks, winners-only
    assembly) while serial/process stream per candidate — each
    backend's best honest path.  Asserts all backends return the same
    evaluations count and a bit-identical best option; outside smoke
    mode, also asserts — with numpy installed — that the vector backend
    beats serial regardless of core count (it vectorizes the combine,
    not the pool).  Without numpy the vector leg is skipped with a
    notice instead of timing a silently degraded serial engine.
    """
    from repro.optimizer.engine import _import_numpy

    cores = os.cpu_count() or 1
    has_numpy = _import_numpy() is not None
    problem = (
        random_problem(2024, clusters=5, choices_per_layer=3)
        if smoke
        else extended_catalog_problem()
    )
    timings: dict[str, float] = {}
    results: dict[str, OptimizationResult] = {}
    skipped: list[str] = []
    rows = []
    for backend in ENGINE_BACKENDS:
        if backend == "vector" and not has_numpy:
            skipped.append(backend)
            rows.append(
                f"  {backend:<8}  SKIPPED (numpy not installed; "
                "pip install .[vector])"
            )
            continue
        with EvaluationEngine(
            problem, cache=False, backend=backend, chunk_size=4096
        ) as engine:
            # Each backend's best honest path through one API call:
            # sweep() is from_stream for serial/process and the
            # block-distilled ranking pass for vector.
            result, seconds = _timed(
                lambda e=engine: e.sweep(keep_options=False)
            )
        timings[backend] = seconds
        results[backend] = result
        rows.append(
            f"  {backend:<8} {seconds:8.2f} s   "
            f"{result.evaluations / seconds:>10,.0f} evals/s   "
            f"best {result.best.label}"
        )

    reference = results["serial"]
    for backend, result in results.items():
        assert result.evaluations == reference.evaluations, backend
        assert result.best.option_id == reference.best.option_id, backend
        assert result.best.tco.total == reference.best.tco.total, backend
        assert result.best.availability.uptime_probability == (
            reference.best.availability.uptime_probability
        ), backend

    speedups = {
        "process_over_serial": timings["serial"] / timings["process"],
    }
    verdict = (
        f"process/serial speedup {speedups['process_over_serial']:.2f}x"
    )
    if has_numpy:
        speedups["vector_over_serial"] = (
            timings["serial"] / timings["vector"]
        )
        verdict += (
            f", vector/serial speedup "
            f"{speedups['vector_over_serial']:.2f}x"
        )
    verdict += f" on {cores} core(s)"
    if not has_numpy:
        verdict += " (vector leg skipped: numpy not installed)"

    emit(
        f"[E14] backend comparison, {reference.evaluations:,}-candidate "
        f"catalog ({'smoke' if smoke else 'extended'}):\n"
        + "\n".join(rows)
        + f"\n  {verdict}"
    )
    if not smoke and has_numpy:
        assert timings["vector"] < timings["serial"], (
            "acceptance: VectorBackend must beat SerialBackend when "
            f"numpy is installed; got {timings}"
        )

    if json_path:
        payload = {
            "experiment": "E14",
            "generated": datetime.now(timezone.utc).isoformat(),
            "smoke": smoke,
            "cores": cores,
            "candidates": reference.evaluations,
            "backends": [
                {
                    "backend": backend,
                    "seconds": timings[backend],
                    "candidates_per_s": (
                        results[backend].evaluations / timings[backend]
                    ),
                }
                for backend in timings
            ],
            "skipped": skipped,
            "speedups": speedups,
        }
        _write_json(json_path, payload)
        emit(f"  wrote {json_path}")
    return 0


def _write_json(path: str, payload: dict) -> None:
    """Write one benchmark artifact (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_backend_comparison_smoke(emit):
    """Cross-backend agreement on the small catalog (fast; E12 smoke)."""
    _compare_backends(smoke=True, emit=emit)


def _smoke() -> int:
    """Fast CI guard: engine correctness + zero full-topology evals."""
    problem = four_by_four_problem()
    engine = EvaluationEngine(problem)
    result, seconds = _timed(lambda: brute_force_optimize(problem, engine=engine))
    pruned_optimize(problem, engine=engine)
    assert engine.stats.topology_evaluations == 0
    assert engine.stats.incremental_combines == 256
    assert engine.stats.cache_hits > 0
    assert all(not option.system_is_materialized for option in result.options)
    print(
        f"[smoke] 4^4 space: {result.evaluations} evaluations in "
        f"{seconds * 1e3:.1f} ms; {engine.stats.describe()}"
    )
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fast correctness smoke instead of pytest-benchmark",
    )
    parser.add_argument(
        "--compare-backends", action="store_true",
        help="race the serial/process/vector backends (E14); with "
        "--smoke, a small-catalog equivalence check without timing "
        "assertions",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="with --compare-backends, also write the timings as a JSON "
        "artifact (e.g. BENCH_E14.json)",
    )
    args = parser.parse_args()
    if args.compare_backends:
        raise SystemExit(
            _compare_backends(smoke=args.smoke, json_path=args.json)
        )
    if args.json:
        parser.error("--json requires --compare-backends")
    if not args.smoke:
        parser.error("run via pytest for full benchmarks, or pass --smoke")
    raise SystemExit(_smoke())
