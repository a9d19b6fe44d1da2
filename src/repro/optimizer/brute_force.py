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

from repro.optimizer.engine import (
    EvaluationEngine,
    engine_for,
    evaluate_candidate_direct,
)
from repro.optimizer.result import EvaluatedOption, OptimizationResult
from repro.optimizer.space import CandidateSpace, OptimizationProblem


def evaluate_candidate(
    problem: OptimizationProblem,
    space: CandidateSpace,
    option_id: int,
    indices: tuple[int, ...],
) -> EvaluatedOption:
    """Instantiate and fully evaluate one candidate permutation.

    The direct (non-cached, non-incremental) path; kept as the exact
    reference the engine's incremental evaluation is verified against.
    """
    return evaluate_candidate_direct(problem, space, option_id, indices)


def iter_brute_force(
    problem: OptimizationProblem,
    engine: EvaluationEngine | None = None,
) -> Iterator[EvaluatedOption]:
    """Stream every candidate's evaluation in paper order.

    The streaming form exists so huge spaces can be consumed without
    materializing the option table — pair it with
    :meth:`OptimizationResult.from_stream`.
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

    An engine built here is closed before returning, so a process
    evaluation backend (e.g. via ``REPRO_BACKEND``) never leaks its
    worker pool; a caller-supplied engine keeps its pool — closing it is
    the caller's call.
    """
    owns_engine = engine is None
    if owns_engine:
        engine = EvaluationEngine(problem, cache=keep_options)
    else:
        engine = engine_for(problem, engine)
    try:
        # EvaluationEngine.sweep lets bulk-ranking backends distill
        # whole blocks at once; with keep_options=True (or any other
        # backend) it is exactly the from_stream path this function
        # always used.
        return engine.sweep(keep_options=keep_options)
    finally:
        if owns_engine:
            engine.close()
