"""Exhaustive three-tier partitioning, kept only as a test oracle.

The §9 three-tier ILP (``repro.core.three_tier``) must reach the optimum
that enumerating every mote/microserver/server assignment reaches.
"""

from __future__ import annotations

import itertools

from repro.core.cut import PartitionError
from repro.core.three_tier import ThreeTierProblem, Tier


def brute_force_three_tier(
    problem: ThreeTierProblem,
) -> tuple[dict[str, Tier] | None, float]:
    """Exhaustive optimum over 3^|V| assignments (tests only)."""
    if len(problem.vertices) > 12:
        raise PartitionError("three-tier brute force limited to 12 vertices")
    best: dict[str, Tier] | None = None
    best_objective = float("inf")
    for combo in itertools.product(
        (Tier.MOTE, Tier.MICRO, Tier.SERVER), repeat=len(problem.vertices)
    ):
        assignment = dict(zip(problem.vertices, combo))
        if not problem.is_feasible(assignment):
            continue
        objective = problem.objective(assignment)
        if objective < best_objective - 1e-12:
            best_objective = objective
            best = assignment
    return best, best_objective
