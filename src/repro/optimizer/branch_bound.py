"""Branch-and-bound search (extension beyond the paper's pruning).

The paper's pruning (§III-C) only clips supersets of SLA-meeting
permutations.  This module adds an admissible lower bound usable on any
*partial* assignment, which also prunes hopeless branches that never
meet the SLA:

- cost bound: ``C_HA`` of the clusters assigned so far (remaining
  clusters can always choose ``none`` at zero cost);
- penalty bound: the system uptime can never exceed
  ``prod_i Pr[C_i up]`` (failover downtime is non-negative), so an
  optimistic uptime — assigned clusters at their actual up-probability,
  unassigned clusters at their best available choice — yields a lower
  bound on expected penalty for every completion of the branch.

Both bounds are simultaneously valid, so ``cost_so_far + penalty_lb``
never overestimates the best completion and the search is exact.

The per-(cluster, technology) facts the bounds consume (up probability,
``C_HA`` share) come straight from the shared
:class:`~repro.optimizer.engine.EvaluationEngine` profile cache, and
leaf evaluation routes through the engine too — a search restarted with
a shared engine re-derives its bounds for free and never re-evaluates a
candidate.
"""

from __future__ import annotations

import math

from repro.optimizer.engine import EvaluationEngine, engine_for, payload_costs
from repro.optimizer.result import OptimizationResult
from repro.optimizer.space import OptimizationProblem


def branch_and_bound_optimize(
    problem: OptimizationProblem,
    *,
    engine: EvaluationEngine | None = None,
    keep_options: bool = True,
) -> OptimizationResult:
    """Exact minimum-TCO search with lower-bound pruning.

    Returns a result whose ``best`` matches brute force on TCO value.
    ``options`` contains only the fully evaluated candidates (only the
    two recommendations with ``keep_options=False``); ``pruned`` counts
    the complete assignments clipped inside pruned subtrees.
    """
    engine = engine_for(problem, engine)
    space = engine.space
    choices = engine.profiles
    n = space.cluster_count

    # Suffix products of the best (largest) up-probability per cluster:
    # best_suffix[i] bounds the availability contribution of clusters i..n-1.
    best_up = [
        max(choice.availability.up_probability for choice in row)
        for row in choices
    ]
    best_suffix = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best_suffix[i] = best_up[i] * best_suffix[i + 1]

    # Candidates left below a node at depth i (product of remaining ks).
    leaves_below = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        leaves_below[i] = len(choices[i]) * leaves_below[i + 1]

    evaluated: list[tuple[int, tuple[int, ...], tuple]] = []
    incumbent = math.inf
    pruned_leaves = 0
    assignment: list[int] = []

    def penalty_lower_bound(up_product: float) -> float:
        """Lower-bound the penalty of any completion of the branch."""
        optimistic_uptime = min(up_product, 1.0)
        hours = problem.contract.expected_slippage_hours(optimistic_uptime)
        return problem.contract.penalty.monthly_penalty(hours)

    def descend(depth: int, cost_so_far: float, up_product: float) -> None:
        nonlocal incumbent, pruned_leaves
        if depth == n:
            indices = tuple(assignment)
            # Paper-order ids so reported options line up with the
            # other searches.
            values = engine.payload(indices)
            evaluated.append((space.paper_order_id(indices), indices, values))
            ha_cost, penalty = payload_costs(values)
            incumbent = min(incumbent, ha_cost + penalty)
            return
        for choice in choices[depth]:
            new_cost = cost_so_far + choice.ha_cost
            new_up = up_product * choice.availability.up_probability
            bound = new_cost + penalty_lower_bound(new_up * best_suffix[depth + 1])
            if bound > incumbent:
                pruned_leaves += leaves_below[depth + 1]
                continue
            assignment.append(choice.index)
            descend(depth + 1, new_cost, new_up)
            assignment.pop()

    descend(0, 0.0, 1.0)
    # Fold in paper order, so a full table lists options by id.
    evaluated.sort(key=lambda candidate: candidate[0])
    accumulator = engine.accumulator(
        "branch-and-bound", keep_options=keep_options
    )
    for candidate in evaluated:
        accumulator.fold(*candidate)
    accumulator.pruned = pruned_leaves
    return accumulator.finish()
