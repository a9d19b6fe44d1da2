"""The paper's §III-C superset pruning search.

The search walks permutations in order of how many components are
clustered.  Whenever a permutation meets the SLA in expectation, every
*superset extension* of it — same technologies on the same clusters,
plus HA on additional clusters — is pruned without evaluation: its
``C_HA`` can only be larger and its penalty cannot drop below zero, so
its TCO cannot beat the already-evaluated subset.  (In the case study,
after option #5 meets the SLA, option #8 is clipped.)

Correctness does not even require that more HA raises uptime: with
non-negative per-cluster HA costs,

    TCO(superset) >= C_HA(superset) >= C_HA(subset) = TCO(subset),

and the subset was evaluated earlier, so the optimum is preserved.

The walk goes subset by subset (which clusters are clustered).  Once
every candidate of a subset is covered — it met the SLA or was pruned
— every candidate of each one-larger superset extends one of them, so
those supersets are pruned whole, without a per-candidate probe.
"""

from __future__ import annotations

from repro.optimizer.engine import (
    EvaluationEngine,
    engine_for,
    payload_meets_sla,
)
from repro.optimizer.result import OptimizationResult
from repro.optimizer.space import OptimizationProblem


def _extends_covered(
    indices: tuple[int, ...], covered: set[tuple[int, ...]]
) -> bool:
    """True when un-clustering one position of ``indices`` lands in ``covered``.

    ``covered`` holds every SLA-meeting option and every pruned candidate
    seen so far.  A candidate extends some SLA-meeting option ``met``
    exactly when one of these one-step reductions is ``met`` itself or
    another extension of ``met``; paper order visits every reduction
    (one fewer clustered component) first, and by induction that
    extension was pruned, hence covered.  So this O(n) probe prunes the
    same candidates as comparing against every SLA-meeting option.

    Candidates are index tuples: choice index 0 is always ``NoHA`` (the
    registry lists it first and reserves its name), so un-clustering a
    position sets it to 0, and index tuples identify candidates exactly
    as their choice names do.
    """
    for position, choice in enumerate(indices):
        if choice and (
            indices[:position] + (0,) + indices[position + 1:] in covered
        ):
            return True
    return False


def pruned_optimize(
    problem: OptimizationProblem,
    *,
    engine: EvaluationEngine | None = None,
    keep_options: bool = True,
) -> OptimizationResult:
    """Run the pruned search; returns only the evaluated options.

    The result's ``best`` equals the brute-force optimum (see module
    docstring); ``pruned`` counts the skipped candidates.  Pass a shared
    ``engine`` to reuse evaluations cached by earlier searches over the
    same problem.  ``keep_options=False`` keeps only the two
    recommendations (see :class:`~repro.optimizer.result.ResultAccumulator`).
    """
    engine = engine_for(problem, engine)
    space = engine.space
    accumulator = engine.accumulator("pruned", keep_options=keep_options)
    payload = engine.payload
    fold = accumulator.fold
    covered: set[tuple[int, ...]] = set()
    # Subsets whose every candidate is covered.  Their candidates need
    # not enter ``covered``: only their supersets probe them, and
    # those are skipped whole.
    full: set[tuple[int, ...]] = set()
    pruned_count = 0
    option_id = 0
    for subset, width in space.subsets_in_paper_order():
        if full and any(
            subset[:position] + subset[position + 1:] in full
            for position in range(len(subset))
        ):
            full.add(subset)
            option_id += width
            pruned_count += width
            continue
        covered_here = 0
        for indices in space.subset_candidates(subset):
            option_id += 1
            if covered and _extends_covered(indices, covered):
                covered.add(indices)
                covered_here += 1
                pruned_count += 1
                continue
            values = payload(indices)
            fold(option_id, indices, values)
            if payload_meets_sla(values):
                covered.add(indices)
                covered_here += 1
        if covered_here == width:
            full.add(subset)
    accumulator.pruned = pruned_count
    return accumulator.finish()
