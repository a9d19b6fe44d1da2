"""Exhaustive evaluation of the candidate space (Eq. 6).

Walks all ``k^n`` permutations in paper order, evaluates Eq. 1-5 for
each, and returns the full table.  This is the reference implementation
the pruned and branch-and-bound searches are tested against.

Evaluation routes through the shared
:class:`~repro.optimizer.engine.EvaluationEngine` (pass ``engine=`` to
reuse one cache across searches); :func:`evaluate_candidate` remains the
standalone full-topology reference path.
"""

from __future__ import annotations

from typing import Iterator

from repro.availability.model import evaluate_availability
from repro.cost.tco import compute_tco
from repro.optimizer.engine import EvaluationEngine, engine_for
from repro.optimizer.result import EvaluatedOption, OptimizationResult
from repro.optimizer.space import CandidateSpace, OptimizationProblem


def evaluate_candidate(
    problem: OptimizationProblem,
    space: CandidateSpace,
    option_id: int,
    indices: tuple[int, ...],
) -> EvaluatedOption:
    """Instantiate and fully evaluate one candidate permutation.

    The reference (non-cached, non-incremental) path: build the whole
    topology, run the availability model end to end, run the TCO model
    end to end.  The engine's incremental evaluation is tested
    bit-identical against it.
    """
    system = space.instantiate(indices)
    availability = evaluate_availability(system)
    tco = compute_tco(system, problem.contract, problem.labor_rate)
    return EvaluatedOption(
        option_id=option_id,
        choice_names=space.choice_names(indices),
        system=system,
        availability=availability,
        tco=tco,
        meets_sla=problem.contract.sla.is_met_by(availability.uptime_probability),
        cluster_names=space.bare_system.cluster_names,
    )


def iter_brute_force(
    problem: OptimizationProblem,
    engine: EvaluationEngine | None = None,
) -> Iterator[EvaluatedOption]:
    """Stream every candidate's evaluation in paper order.

    The streaming form exists so huge spaces can be consumed without
    materializing the option table; to keep only the two
    recommendations, use ``brute_force_optimize(keep_options=False)``.
    """
    return engine_for(problem, engine).evaluate_all()


def brute_force_optimize(
    problem: OptimizationProblem,
    *,
    engine: EvaluationEngine | None = None,
    keep_options: bool = True,
) -> OptimizationResult:
    """Evaluate every candidate and return the complete option table.

    ``keep_options=False`` streams the space and keeps only the
    distilled recommendations (for million-candidate sweeps).  In that
    case the default engine is built with its result cache off so the
    sweep holds O(1) options in memory; pass an explicit ``engine`` to
    trade memory for cross-search reuse.
    """
    if engine is None:
        engine = EvaluationEngine(problem, cache=keep_options)
    else:
        engine = engine_for(problem, engine)
    return engine.sweep(keep_options=keep_options)
